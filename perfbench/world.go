package main

import (
	"fmt"
	"math/rand"

	"partsvc/internal/mail"
	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/seccrypto"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
)

// mailWorld is the paper's case study in one process, built from public
// constructors the way examples/mailservice builds it: the Figure 5
// network, a node wrapper per node, the primary MailServer on ny-1,
// planner.New defaults, a generic server registered in the lookup
// service — over the TCP transport. The mail-fig6 and session-churn
// workloads share it; every call they make into the runtime goes
// through this file or their own file.
type mailWorld struct {
	tcp      *transport.TCP
	tr       transport.Transport // tcp, or its traced decorator
	keys     *seccrypto.KeyRing
	primary  *mail.Server
	engine   *smock.Engine
	gs       *smock.GenericServer
	lookup   *smock.Lookup
	gsLn     transport.Listener
	wrappers map[netmodel.NodeID]*smock.NodeWrapper

	// seeded holds each reader's fixed inbox as sent at set-up.
	seeded map[string][]seededMsg
}

// seededMsg is one message filed at set-up.
type seededMsg struct {
	ID   uint64
	From string
	Subj string
	Body []byte
	Sens int
}

// Readers' inboxes are filled once at set-up by seedSender and never
// written again, so a receive re-encrypts the same amount every time.
const (
	seedSender = "Dave"
	inboxSize  = 8
)

var readers = []string{"Alice", "Carol"}

const lookupService = "mail"

var lookupAttrs = map[string]string{"type": "mail"}

// newMailWorld builds the world with accounts for the readers, the
// seed sender and the extra users a workload needs. A non-nil tracer
// decorates the transport and the component registry.
func newMailWorld(seed int64, t *tracer, extraUsers []string) (*mailWorld, error) {
	w := &mailWorld{
		tcp:      transport.NewTCP(),
		keys:     seccrypto.NewKeyRing(),
		wrappers: map[netmodel.NodeID]*smock.NodeWrapper{},
		seeded:   map[string][]seededMsg{},
	}
	w.tr = w.tcp
	if t != nil {
		w.tr = newTracedTransport(w.tcp, t)
	}
	clock := transport.NewRealClock()
	w.primary = mail.NewServer(w.keys, clock)
	users := append(append([]string{seedSender}, readers...), extraUsers...)
	for _, u := range users {
		if err := w.primary.CreateAccount(u); err != nil {
			return nil, err
		}
	}
	// Fixed inboxes, filled before any view exists: views receive them
	// through the coherence directory's catch-up at activation.
	rng := rand.New(rand.NewSource(seed))
	for _, r := range readers {
		for i := 0; i < inboxSize; i++ {
			m := seededMsg{
				From: seedSender,
				Subj: fmt.Sprintf("seed-%s-%d", r, i),
				Body: randomBody(rng, 32, 512),
				Sens: 1 + i%seccrypto.MaxLevel,
			}
			id, err := w.primary.Send(m.From, r, m.Subj, m.Body, m.Sens)
			if err != nil {
				return nil, err
			}
			m.ID = id
			w.seeded[r] = append(w.seeded[r], m)
		}
	}

	reg := smock.NewRegistry()
	if err := mail.RegisterFactories(reg, &mail.ServiceEnv{Primary: w.primary, Keys: w.keys}); err != nil {
		return nil, err
	}
	if t != nil {
		var err error
		if reg, err = tracedRegistry(reg, t); err != nil {
			return nil, err
		}
	}

	net := topology.CaseStudy()
	w.engine = smock.NewEngine(w.tr)
	for _, node := range net.Nodes() {
		wr := smock.NewNodeWrapper(node.ID, w.tr, reg, clock)
		w.wrappers[node.ID] = wr
		w.engine.RegisterWrapper(wr)
	}
	addr, err := w.wrappers[topology.NYServer].Install(smock.InstallOrder{
		Component: spec.CompMailServer, InstanceID: "mail-primary",
	})
	if err != nil {
		w.close()
		return nil, err
	}
	svc := spec.MailService()
	pl := planner.New(svc, net)
	msPlace, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		w.close()
		return nil, err
	}
	pl.AddExisting(msPlace)
	w.engine.AdoptInstance(msPlace, addr)
	w.gs = smock.NewGenericServer(svc, pl, w.engine)
	w.lookup = smock.NewLookup()
	w.engine.SetLookup(w.lookup)
	if w.gsLn, err = w.tr.Serve("", w.gs.Handler()); err != nil {
		w.close()
		return nil, err
	}
	if err := w.lookup.Register(smock.Entry{
		Service: lookupService, Attrs: lookupAttrs, ServerAddr: w.gsLn.Addr(),
	}); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// randomBody returns n random bytes, n log-uniform in [lo, hi).
func randomBody(rng *rand.Rand, lo, hi int) []byte {
	n := lo
	for n*2 <= hi && rng.Intn(2) == 0 {
		n *= 2
	}
	n += rng.Intn(n)
	if n >= hi {
		n = hi - 1
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// shape is one Figure 6 client: where it runs, who it is, and the
// trust its client component is restricted to (0 = full client).
type shape struct {
	site  string
	node  netmodel.NodeID
	user  string
	trust int
}

// Figure 6 request shapes in deployment order: New York, San Diego,
// then the partner site Seattle.
var fig6Shapes = []shape{
	{site: "ny", node: topology.NYClient, user: "Alice"},
	{site: "sd", node: topology.SDClient, user: "Alice"},
	{site: "sea", node: topology.SeaClient, user: "Carol", trust: 2},
}

// mailClient is the application side of one site: a full or restricted
// mail client speaking through a generic proxy.
type mailClient struct {
	full *mail.Client
	view *mail.ViewClient
}

func (c mailClient) send(to, subject string, body []byte, sens int) (uint64, error) {
	if c.view != nil {
		return c.view.Send(to, subject, body, sens)
	}
	return c.full.Send(to, subject, body, sens)
}

func (c mailClient) receive() ([]*mail.Message, error) {
	if c.view != nil {
		return c.view.Receive()
	}
	return c.full.Receive()
}

// newClient binds a user's client of a shape's kind over an endpoint (a
// generic proxy, or in the traced session flow the endpoint dialed
// after Access). A traced caller passes its scope, under whose current
// span the client's calls are timed.
func (w *mailWorld) newClient(sh shape, user string, ep transport.Endpoint, sc *scope) mailClient {
	if sc != nil {
		ep = &scopedEndpoint{inner: ep, sc: sc}
	}
	remote := mail.NewRemote(ep)
	if sh.trust > 0 {
		return mailClient{view: mail.NewViewClient(user, sh.trust, w.keys.SubRing(sh.trust), remote)}
	}
	return mailClient{full: mail.NewClient(user, w.keys, remote)}
}

// proxy downloads a generic proxy for a shape from the lookup service
// (Figure 1, step 2); its first call plans, deploys and rebinds.
func (w *mailWorld) proxy(sh shape) (*smock.GenericProxy, error) {
	p, err := smock.NewGenericProxy(w.tr, w.lookup, lookupService, lookupAttrs)
	if err != nil {
		return nil, err
	}
	p.Interface = spec.IfaceClient
	p.Node = sh.node
	p.User = sh.user
	p.RateRPS = 50
	return p, nil
}

// request is the planner request a shape's proxy sends.
func (sh shape) request() planner.Request {
	return planner.Request{Interface: spec.IfaceClient, ClientNode: sh.node, User: sh.user, RateRPS: 50}
}

// visibleInbox is the seeded inbox a shape's client must read: all of
// it for full clients, the messages within its trust for restricted
// ones.
func (w *mailWorld) visibleInbox(sh shape) []seededMsg {
	var out []seededMsg
	for _, m := range w.seeded[sh.user] {
		if sh.trust == 0 || m.Sens <= sh.trust {
			out = append(out, m)
		}
	}
	return out
}

// primaryInbox reads a user's inbox at the primary through the public
// client API, bodies opened with the user's keys.
func (w *mailWorld) primaryInbox(user string) ([]*mail.Message, error) {
	return mail.NewClient(user, w.keys, w.primary).Receive()
}

func (w *mailWorld) close() {
	if w.gsLn != nil {
		w.gsLn.Close()
	}
	for _, wr := range w.wrappers {
		wr.Close()
	}
}
