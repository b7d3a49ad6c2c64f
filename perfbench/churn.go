package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"partsvc/internal/mail"
	"partsvc/internal/planner"
)

// session-churn: the one-time cost a new client waits for (§4.2). One
// caller runs sessions back to back, rotating the three Figure 6
// request shapes; each session downloads a generic proxy, makes its
// first request (Access: plan, deploy, rebind), a few follow-up
// requests, then closes and tears its placements down. One caller,
// because concurrent sessions share placements by key: deployments
// would depend on interleaving and one session's teardown would break
// another's chain. Every request reads the shape's reader's fixed
// inbox, so view activation catches up the same history every time.

// Known-good deployments of a session alone on the case study, in
// fig6Shapes order. With no San Diego view deployed, Seattle chains to
// New York directly.
var churnDeployments = []string{
	fig6Deployments[0],
	fig6Deployments[1],
	"ViewMailClient@sea-2 -> ViewMailServer@sea-2{TrustLevel=2} -> Encryptor@sea-2 -> Decryptor@ny-1 -> MailServer@ny-1*",
}

const (
	churnFollowUps = 3
	churnWarmup    = 6 // sessions, two per shape
)

type sessionChurn struct {
	seed int64
	t    *tracer
	sc   *scope // the caller's scope when traced
	w    *mailWorld
	base baseline
	next int // sessions started; selects the shape
	deps [3]string
	errs []string

	// Traced-run planner counters, summed over sessions.
	plans, mappings, rejected, routeHits, routeLookups, propagations float64
	activations                                                      float64
}

func newSessionChurn(seed int64, t *tracer) *sessionChurn {
	// The seed picks the starting shape and, through the world, the
	// seeded inboxes.
	s := &sessionChurn{seed: seed, t: t, next: int(seed % 3)}
	if t != nil {
		s.sc = &scope{}
	}
	return s
}

func (s *sessionChurn) unit() string { return "session" }

func (s *sessionChurn) setup() error {
	w, err := newMailWorld(s.seed, s.t, nil)
	if err != nil {
		return err
	}
	s.w = w
	s.base = s.baseline()
	return nil
}

// warmup runs whole sessions of every shape before timing.
func (s *sessionChurn) warmup() error {
	for i := 0; i < churnWarmup; i++ {
		if _, _, err := s.session(); err != nil {
			return fmt.Errorf("warm-up session: %w", err)
		}
	}
	return nil
}

func (s *sessionChurn) baseline() baseline {
	return baseline{
		instances:     s.w.engine.InstanceCount(),
		lookupEntries: len(s.w.lookup.Find(lookupService, lookupAttrs)),
		reuseSet:      len(s.w.gs.Planner().Existing),
	}
}

// session runs one whole session and returns the time from proxy
// creation to the first reply, and each follow-up request's latency.
// Output mismatches are recorded as check failures; an error means a
// call failed.
func (s *sessionChurn) session() (time.Duration, []time.Duration, error) {
	k := s.next % len(fig6Shapes)
	s.next++
	sh := fig6Shapes[k]
	want := s.w.visibleInbox(sh)

	var (
		client mailClient
		dep    string
		placed []planner.Placement
		closer func() error
	)
	t0 := time.Now()
	if s.t == nil {
		p, err := s.w.proxy(sh)
		if err != nil {
			return 0, nil, err
		}
		closer = p.Close
		client = s.w.newClient(sh, sh.user, p, nil)
		msgs, err := client.receive()
		first := time.Since(t0)
		if err != nil {
			p.Close()
			return first, nil, err
		}
		s.expectInbox(msgs, want, sh)
		dep = p.Deployment
		placed = s.newPlacements()
		return s.finish(first, client, closer, k, dep, placed, want, sh)
	}
	root := s.t.start("session.first_reply", nil)
	pl := s.w.gs.Planner()
	before := s.w.engine.InstanceCount()
	props0 := pl.SolverStats.Propagations.Load()
	// Access, step by step: the calls GenericServer.Access is made of.
	sp := s.t.start("planner.plan", root)
	d, err := pl.PlanVia(pl.Preferred(), sh.request())
	sp.end()
	if err != nil {
		root.end()
		return 0, nil, err
	}
	st := pl.Stats()
	sp = s.t.start("smock.execute", root)
	s.t.ambient.Store(sp)
	addr, err := s.w.engine.Execute(d, s.w.gs.Requires)
	s.t.ambient.Store(nil)
	sp.end()
	if err != nil {
		root.end()
		return 0, nil, err
	}
	sp = s.t.start("planner.note", root)
	s.w.gs.NoteDeployed(d)
	sp.end()
	sp = s.t.start("smock.bind", root)
	s.t.ambient.Store(sp)
	ep, err := s.w.tr.Dial(addr)
	s.t.ambient.Store(nil)
	sp.end()
	if err != nil {
		root.end()
		return 0, nil, err
	}
	closer = ep.Close
	client = s.w.newClient(sh, sh.user, ep, s.sc)
	sp = s.t.start("mail.first_op", root)
	s.sc.cur = sp
	msgs, err := client.receive()
	sp.end()
	root.end()
	first := time.Since(t0)
	if err != nil {
		ep.Close()
		return first, nil, err
	}
	s.expectInbox(msgs, want, sh)
	s.plans++
	s.mappings += float64(st.MappingsTried)
	s.rejected += float64(st.RejectedConditions + st.RejectedProps + st.RejectedLoad + st.RejectedNoPath)
	s.routeHits += float64(st.RouteCacheHits)
	s.routeLookups += float64(st.RouteCacheHits + st.RouteCacheMisses)
	s.propagations += float64(pl.SolverStats.Propagations.Load() - props0)
	s.activations += float64(s.w.engine.InstanceCount() - before)
	for _, p := range d.Placements {
		if !p.Reused {
			placed = append(placed, p)
		}
	}
	return s.finish(first, client, closer, k, d.String(), placed, want, sh)
}

// finish runs the follow-up requests, closes the client and tears the
// session's placements down.
func (s *sessionChurn) finish(first time.Duration, client mailClient, closer func() error, k int, dep string,
	placed []planner.Placement, want []seededMsg, sh shape) (time.Duration, []time.Duration, error) {
	if err := checkDeployment(dep, churnDeployments[k]); err != nil {
		s.errs = append(s.errs, fmt.Sprintf("%s session: %v", sh.site, err))
	}
	if s.deps[k] == "" {
		s.deps[k] = dep
	}
	var follow []time.Duration
	var callErr error
	for i := 0; i < churnFollowUps; i++ {
		sp := s.t.start("client.receive", nil)
		setScope(s.sc, sp)
		t0 := time.Now()
		msgs, err := client.receive()
		d := time.Since(t0)
		sp.end()
		if err != nil {
			callErr = err
			break
		}
		follow = append(follow, d)
		if len(msgs) != len(want) {
			s.errs = append(s.errs, fmt.Sprintf("%s follow-up returned %d messages, want %d", sh.site, len(msgs), len(want)))
		}
	}
	closer()
	sp := s.t.start("smock.teardown", nil)
	for _, p := range placed {
		if err := s.w.engine.Teardown(p); err != nil && callErr == nil {
			callErr = fmt.Errorf("teardown %s: %w", p.Key(), err)
		}
	}
	s.w.gs.Forget(placed...)
	sp.end()
	if err := checkBaseline(s.baseline(), s.base); err != nil {
		s.errs = append(s.errs, fmt.Sprintf("%s session: %v", sh.site, err))
	}
	return first, follow, callErr
}

func (s *sessionChurn) expectInbox(msgs []*mail.Message, want []seededMsg, sh shape) {
	if err := checkInbox(msgs, want); err != nil {
		s.errs = append(s.errs, fmt.Sprintf("%s first reply: %v", sh.site, err))
	}
}

// newPlacements returns the reuse-set entries the last Access added:
// the session's freshly deployed placements.
func (s *sessionChurn) newPlacements() []planner.Placement {
	existing := s.w.gs.Planner().Existing
	return append([]planner.Placement(nil), existing[s.base.reuseSet:]...)
}

func (s *sessionChurn) run(dur time.Duration) *phase {
	p := &phase{}
	s.plans, s.mappings, s.rejected, s.routeHits, s.routeLookups, s.propagations, s.activations = 0, 0, 0, 0, 0, 0, 0
	before := snapMem()
	tcp0 := s.w.tcp.Stats()
	start := time.Now()
	for time.Since(start) < dur {
		first, follow, err := s.session()
		p.attempted++
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "session failed: %v\n", err)
			continue
		}
		p.main = append(p.main, ms(first))
		for _, d := range follow {
			p.side = append(p.side, ms(d))
		}
		p.units++
	}
	p.elapsed = time.Since(start)
	p.rate = float64(p.units) / p.elapsed.Seconds()
	p.counters = map[string]float64{}
	addTCP(p.counters, tcp0, s.w.tcp.Stats(), float64(p.units))
	addMem(p.counters, before, snapMem(), float64(p.units))
	return p
}

// layers attributes the traced sessions' time to layers, per session:
// each step of the first request as timed, the data path of the first
// and follow-up requests as self time.
func (s *sessionChurn) layers(tree *spanTree) map[string]float64 {
	out := map[string]float64{}
	totals := map[string]time.Duration{}
	var hops samples
	sessions := 0
	dataPath := func(root *span) {
		tree.selfByLayer(root, churnLayer, totals)
		tree.walk(root, func(sp *span) {
			if strings.HasPrefix(sp.Name, "hop:") {
				hops = append(hops, ms(tree.self(sp)))
			}
		})
	}
	for _, root := range tree.roots {
		switch root.Name {
		case "session.first_reply":
			sessions++
			for _, c := range tree.children[root.ID] {
				totals[c.Name] += c.dur()
				if c.Name == "mail.first_op" {
					dataPath(c)
				}
			}
			tree.walk(root, func(sp *span) {
				if sp.Name == "smock.activate" {
					totals[sp.Name] += sp.dur()
				}
			})
		case "client.receive":
			dataPath(root)
		case "smock.teardown":
			totals[root.Name] += root.dur()
		}
	}
	n := float64(sessions)
	for k, v := range totals {
		out[churnMetric(k)] = ms(v) / n
	}
	out["transport.hop_rtt_p50_ms"] = hops.p50()
	out["transport.hops_per_op"] = ratio(float64(len(hops)), n)
	out["planner.mappings_per_plan"] = ratio(s.mappings, s.plans)
	out["planner.rejected_per_plan"] = ratio(s.rejected, s.plans)
	out["netmodel.route_hit_rate"] = ratio(s.routeHits, s.routeLookups)
	out["solver.propagations_per_plan"] = ratio(s.propagations, s.plans)
	out["smock.activations_per_session"] = ratio(s.activations, s.plans)
	return out
}

// path is the first reply's blocking path.
func (s *sessionChurn) path(tree *spanTree) (map[string]float64, samples) {
	return tree.blockingPath("session.first_reply", func(name string) string {
		switch name {
		case "session.first_reply":
			return "session_self_ms"
		case "planner.plan", "smock.execute", "smock.activate", "planner.note", "smock.bind":
			return churnMetric(name)
		case "transport.listen", "transport.dial":
			return "transport.connect_ms"
		}
		return churnLayer(name)
	})
}

// churnLayer maps a data-path span of a session to its layer; the
// first op's own span is the client's work.
func churnLayer(name string) string {
	if name == "mail.first_op" {
		return "mail.client_self_ms"
	}
	return dataPathLayer(name)
}

// churnMetric names the per-session metric of a timed session step.
func churnMetric(name string) string {
	switch name {
	case "planner.plan", "smock.execute", "smock.activate", "smock.bind", "smock.teardown", "planner.note":
		return name + "_ms"
	case "mail.first_op":
		return "mail.first_op_ms"
	}
	return name
}

func (s *sessionChurn) check() error { return joinErrs(s.errs) }

func (s *sessionChurn) digest() string {
	var b strings.Builder
	for i, d := range s.deps {
		fmt.Fprintf(&b, "%s=%s;", fig6Shapes[i].site, d)
	}
	fmt.Fprintf(&b, "base=%v;", s.base)
	for _, r := range readers {
		for _, m := range s.w.seeded[r] {
			fmt.Fprintf(&b, "%s:%d:%x;", r, m.ID, m.Body[:4])
		}
	}
	return b.String()
}

func (s *sessionChurn) close() {
	if s.w != nil {
		s.w.close()
	}
}
