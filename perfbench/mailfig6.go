package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"partsvc/internal/coherence"
	"partsvc/internal/mail"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/transport"
)

// mail-fig6: the paper's headline user metric. Set-up deploys New York,
// San Diego and Seattle through the Figure 1 proxy flow, so Seattle
// chains through the San Diego view as in Figure 6; then a closed loop
// of nproc callers sends and receives mail through the three chains.
// After set-up the planner does nothing: the wire, transport, mail,
// seccrypto and coherence layers do all the work.

// Known-good Figure 6 deployments, in fig6Shapes order.
var fig6Deployments = []string{
	"MailClient@ny-2 -> MailServer@ny-1*",
	"MailClient@sd-2 -> ViewMailServer@sd-2{TrustLevel=4} -> Encryptor@sd-2 -> Decryptor@ny-1 -> MailServer@ny-1*",
	"ViewMailClient@sea-2 -> ViewMailServer@sea-2{TrustLevel=2} -> Encryptor@sea-2 -> Decryptor@sd-2 -> ViewMailServer@sd-2{TrustLevel=4}*",
}

const (
	fig6SendShare  = 0.8 // mostly sends, some receives
	fig6StreamLen  = 4096
	fig6WarmupOps  = 150 // per caller, before the timed phase
	fig6MaxBody    = 1024
	fig6MinBody    = 32
	fig6SeaMaxSens = 2 // the restricted client's trust
)

// Timed sends come from a pool of users per site and go to a pool of
// sink accounts nobody reads until the final check. The mail store
// scans a folder for a duplicate id on every append, so an append
// costs time linear in the folder's size; spreading a run's sends over
// many folders keeps each folder small and the send path's cost
// nearly constant over the run.
const (
	fig6SendersPerSite = 16
	fig6Sinks          = 256
)

func sinkName(i int) string { return fmt.Sprintf("sink%03d", i) }

func senderName(site, i int) string { return fmt.Sprintf("%s%02d", fig6Shapes[site].site, i) }

type mailOp struct {
	site   int
	send   bool
	sender int
	to     string
	subj   string
	body   []byte
	sens   int
}

// ack is one acknowledged send: the id the chain returned and the op
// that produced it.
type ack struct {
	id uint64
	op *mailOp
}

type fig6Site struct {
	sh    shape
	proxy *smock.GenericProxy
	want  int // inbox size the reader's receives must return
}

// fig6Caller is one closed-loop caller: its seeded op stream and its
// clients of every site, all speaking through the sites' shared
// proxies.
type fig6Caller struct {
	ops     []mailOp
	next    int
	sc      *scope
	readers []mailClient   // per site
	senders [][]mailClient // per site, per sender
}

type mailFig6 struct {
	seed    int64
	t       *tracer
	w       *mailWorld
	sites   []fig6Site
	deps    []string
	callers []*fig6Caller

	mu      sync.Mutex
	acks    []ack
	badRecv []string
}

func newMailFig6(seed int64, t *tracer) *mailFig6 {
	return &mailFig6{seed: seed, t: t}
}

func (m *mailFig6) unit() string { return "op" }

func (m *mailFig6) setup() error {
	var users []string
	for site := range fig6Shapes {
		for i := 0; i < fig6SendersPerSite; i++ {
			users = append(users, senderName(site, i))
		}
	}
	for i := 0; i < fig6Sinks; i++ {
		users = append(users, sinkName(i))
	}
	w, err := newMailWorld(m.seed, m.t, users)
	if err != nil {
		return err
	}
	m.w = w
	for _, sh := range fig6Shapes {
		p, err := w.proxy(sh)
		if err != nil {
			return err
		}
		// The first request plans, deploys and rebinds.
		msgs, err := w.newClient(sh, sh.user, p, nil).receive()
		if err != nil {
			return fmt.Errorf("%s first request: %w", sh.site, err)
		}
		if err := checkInbox(msgs, w.visibleInbox(sh)); err != nil {
			return fmt.Errorf("%s first reply: %w", sh.site, err)
		}
		m.sites = append(m.sites, fig6Site{sh: sh, proxy: p, want: len(w.visibleInbox(sh))})
		m.deps = append(m.deps, p.Deployment)
	}
	for i, got := range m.deps {
		if err := checkDeployment(got, fig6Deployments[i]); err != nil {
			return fmt.Errorf("%s: %w", fig6Shapes[i].site, err)
		}
	}

	for c := 0; c < runtime.NumCPU(); c++ {
		cl := &fig6Caller{ops: m.opStream(rand.New(rand.NewSource(m.seed*7919 + int64(c))))}
		if m.t != nil {
			cl.sc = &scope{}
		}
		for site, s := range m.sites {
			cl.readers = append(cl.readers, w.newClient(s.sh, s.sh.user, s.proxy, cl.sc))
			var senders []mailClient
			for i := 0; i < fig6SendersPerSite; i++ {
				senders = append(senders, w.newClient(s.sh, senderName(site, i), s.proxy, cl.sc))
			}
			cl.senders = append(cl.senders, senders)
		}
		m.callers = append(m.callers, cl)
	}
	return nil
}

// warmup fills connections, buffer pools and caches before timing.
func (m *mailFig6) warmup() error {
	var wg sync.WaitGroup
	for _, cl := range m.callers {
		wg.Add(1)
		go func(cl *fig6Caller) {
			defer wg.Done()
			for i := 0; i < fig6WarmupOps; i++ {
				m.do(cl)
			}
		}(cl)
	}
	wg.Wait()
	return nil
}

// opStream generates one caller's cyclic op sequence: a uniformly
// chosen site, sends to sink accounts with seeded body sizes and
// sensitivities within the site's reach, receives of the site reader's
// fixed inbox.
func (m *mailFig6) opStream(rng *rand.Rand) []mailOp {
	ops := make([]mailOp, fig6StreamLen)
	for i := range ops {
		op := mailOp{site: rng.Intn(len(fig6Shapes)), send: rng.Float64() < fig6SendShare}
		if op.send {
			op.sender = rng.Intn(fig6SendersPerSite)
			op.to = sinkName(rng.Intn(fig6Sinks))
			op.subj = fmt.Sprintf("t%d", i)
			op.body = randomBody(rng, fig6MinBody, fig6MaxBody)
			maxSens := 5
			if fig6Shapes[op.site].trust > 0 {
				maxSens = fig6SeaMaxSens
			}
			op.sens = 1 + rng.Intn(maxSens)
		}
		ops[i] = op
	}
	return ops
}

// do runs a caller's next op and returns whether it was a send, its
// latency, and whether the call failed.
func (m *mailFig6) do(cl *fig6Caller) (send bool, d time.Duration, failed bool) {
	op := &cl.ops[cl.next%len(cl.ops)]
	cl.next++
	s := m.sites[op.site]
	if op.send {
		sp := m.t.start("client.send", nil)
		setScope(cl.sc, sp)
		t0 := time.Now()
		id, err := cl.senders[op.site][op.sender].send(op.to, op.subj, op.body, op.sens)
		d = time.Since(t0)
		sp.end()
		if err != nil {
			return true, d, true
		}
		m.mu.Lock()
		m.acks = append(m.acks, ack{id: id, op: op})
		m.mu.Unlock()
		return true, d, false
	}
	sp := m.t.start("client.receive", nil)
	setScope(cl.sc, sp)
	t0 := time.Now()
	msgs, err := cl.readers[op.site].receive()
	d = time.Since(t0)
	sp.end()
	if err != nil {
		return false, d, true
	}
	if len(msgs) != s.want {
		m.mu.Lock()
		m.badRecv = append(m.badRecv, fmt.Sprintf("%s receive returned %d messages, want %d", s.sh.site, len(msgs), s.want))
		m.mu.Unlock()
	}
	return false, d, false
}

func (m *mailFig6) run(dur time.Duration) *phase {
	p := &phase{}
	var mu sync.Mutex
	type rec struct {
		at   time.Duration
		d    float64
		send bool
	}
	var recs []rec
	before := m.counters()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, cl := range m.callers {
		wg.Add(1)
		go func(cl *fig6Caller) {
			defer wg.Done()
			var local []rec
			var attempted, failed int64
			for time.Now().Before(deadline) {
				send, d, bad := m.do(cl)
				attempted++
				if bad {
					failed++
					continue
				}
				local = append(local, rec{at: time.Since(start), d: ms(d), send: send})
			}
			mu.Lock()
			recs = append(recs, local...)
			p.attempted += attempted
			p.failed += failed
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	after := m.counters()
	sort.Slice(recs, func(i, j int) bool { return recs[i].at < recs[j].at })
	for _, r := range recs {
		if r.send {
			p.main = append(p.main, r.d)
		} else {
			p.side = append(p.side, r.d)
		}
	}
	p.units = len(recs)
	p.rate = float64(p.units) / p.elapsed.Seconds()
	p.counters = m.counterMetrics(before, after, p)
	return p
}

// fig6Counters is a snapshot of the counters the data path exposes.
type fig6Counters struct {
	tcp   transport.StatsSnapshot
	dir   coherence.DirectoryStats
	mem   runtime.MemStats
	sends int
}

func (m *mailFig6) counters() fig6Counters {
	m.mu.Lock()
	sends := len(m.acks)
	m.mu.Unlock()
	return fig6Counters{tcp: m.w.tcp.Stats(), dir: m.w.primary.Directory().Stats(), mem: snapMem(), sends: sends}
}

func (m *mailFig6) counterMetrics(a, b fig6Counters, p *phase) map[string]float64 {
	out := map[string]float64{}
	ops := float64(p.units)
	addTCP(out, a.tcp, b.tcp, ops)
	sends := float64(b.sends - a.sends)
	out["coherence.flushes_per_send"] = ratio(float64(b.dir.Publishes-a.dir.Publishes), sends)
	out["coherence.replicas_updated_per_send"] = ratio(float64(b.dir.ReplicasUpdated-a.dir.ReplicasUpdated), sends)
	addMem(out, a.mem, b.mem, ops)
	return out
}

// layers attributes the traced phase's span time to layers, per op
// (sends and receives alike).
func (m *mailFig6) layers(tree *spanTree) map[string]float64 {
	totals := map[string]time.Duration{}
	ops := 0
	var hops samples
	for _, root := range tree.roots {
		if root.Name != "client.send" && root.Name != "client.receive" {
			continue
		}
		ops++
		tree.selfByLayer(root, dataPathLayer, totals)
		tree.walk(root, func(s *span) {
			if strings.HasPrefix(s.Name, "hop:") {
				hops = append(hops, ms(tree.self(s)))
			}
		})
	}
	out := map[string]float64{}
	for k, v := range totals {
		out[k] = ms(v) / float64(ops)
	}
	out["transport.hop_rtt_p50_ms"] = hops.p50()
	out["transport.hops_per_op"] = ratio(float64(len(hops)), float64(ops))
	return out
}

// path is the send's blocking path.
func (m *mailFig6) path(tree *spanTree) (map[string]float64, samples) {
	return tree.blockingPath("client.send", dataPathLayer)
}

// dataPathLayer maps a data-path span to its per-layer metric.
func dataPathLayer(name string) string {
	switch name {
	case "client.send", "client.receive":
		return "mail.client_self_ms"
	case spec.CompMailServer:
		return "mail.primary_self_ms"
	case spec.CompViewMailServer:
		return "mail.view_self_ms"
	case spec.CompEncryptor:
		return "mail.encryptor_self_ms"
	case spec.CompDecryptor:
		return "mail.decryptor_self_ms"
	case spec.CompMailClient, spec.CompViewMailClient:
		return "mail.relay_self_ms"
	}
	if strings.HasPrefix(name, "hop:") {
		return "transport.hop_self_ms"
	}
	return "other_self_ms"
}

// check verifies the run's outputs: the Figure 6 deployments, every
// acknowledged send readable exactly once by its recipient with its
// exact body once the views have synced, and the readers' inboxes
// unchanged.
func (m *mailFig6) check() error {
	var errs []string
	errs = append(errs, m.badRecv...)
	for i, got := range m.deps {
		if err := checkDeployment(got, fig6Deployments[i]); err != nil {
			errs = append(errs, err.Error())
		}
	}
	// Sync every view through the public snapshot call, which flushes
	// pending writes upstream before serializing.
	for _, inst := range m.w.engine.LiveInstances() {
		if strings.HasPrefix(inst.Key, spec.CompViewMailServer+"@") {
			if _, err := mail.SnapshotRemote(m.w.tr, inst.Addr); err != nil {
				errs = append(errs, fmt.Sprintf("sync %s: %v", inst.Key, err))
			}
		}
	}
	bySink := map[string][]ack{}
	for _, a := range m.acks {
		bySink[a.op.to] = append(bySink[a.op.to], a)
	}
	lost := 0
	var sinkErrs []string
	for i := 0; i < fig6Sinks; i++ {
		name := sinkName(i)
		inbox, err := m.w.primaryInbox(name)
		if err != nil {
			sinkErrs = append(sinkErrs, fmt.Sprintf("read %s: %v", name, err))
			continue
		}
		n, err := checkAcked(inbox, bySink[name])
		lost += n
		if err != nil {
			sinkErrs = append(sinkErrs, fmt.Sprintf("%s: %v", name, err))
		}
	}
	if lost > 0 {
		errs = append(errs, fmt.Sprintf("%d of %d acknowledged sends never reached the primary", lost, len(m.acks)))
	}
	errs = append(errs, sinkErrs...)
	for _, s := range m.sites {
		msgs, err := m.w.newClient(s.sh, s.sh.user, s.proxy, nil).receive()
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s final receive: %v", s.sh.site, err))
			continue
		}
		if err := checkInbox(msgs, m.w.visibleInbox(s.sh)); err != nil {
			errs = append(errs, fmt.Sprintf("%s final receive: %v", s.sh.site, err))
		}
		if n := m.w.primary.Store().InboxCount(s.sh.user); n != inboxSize {
			errs = append(errs, fmt.Sprintf("%s inbox grew to %d, want %d", s.sh.user, n, inboxSize))
		}
	}
	return joinErrs(errs)
}

// digest is the run's seed-determined checked output: identical for
// the traced and untraced runs of one seed.
func (m *mailFig6) digest() string {
	var b strings.Builder
	for i, d := range m.deps {
		fmt.Fprintf(&b, "%s=%s;", fig6Shapes[i].site, d)
	}
	for _, r := range readers {
		for _, s := range m.w.seeded[r] {
			fmt.Fprintf(&b, "%s:%d:%x;", r, s.ID, s.Body[:4])
		}
	}
	return b.String()
}

func (m *mailFig6) close() {
	for _, s := range m.sites {
		s.proxy.Close()
	}
	if m.w != nil {
		m.w.close()
	}
}
