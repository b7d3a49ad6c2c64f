package main

import (
	"context"
	"sync"

	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// The traced run times each layer from outside, through decorators of
// the program's public interfaces. Every decorator forwards every
// method its inner value offers (CallContext, Stats), so the program
// takes the same code path traced and untraced.

// tracedTransport decorates the TCP transport: dials return timed
// endpoints that know which component they reach, and the listens and
// dials of a deployment are timed under the tracer's ambient span.
type tracedTransport struct {
	inner *transport.TCP
	t     *tracer

	mu    sync.Mutex
	names map[string]string // served address -> component name
}

func newTracedTransport(inner *transport.TCP, t *tracer) *tracedTransport {
	return &tracedTransport{inner: inner, t: t, names: map[string]string{}}
}

func (d *tracedTransport) Serve(addr string, h transport.Handler) (transport.Listener, error) {
	s := d.t.start("transport.listen", d.t.ambient.Load())
	ln, err := d.inner.Serve(addr, h)
	s.end()
	if err != nil {
		return nil, err
	}
	if th, ok := h.(*tracedHandler); ok {
		d.mu.Lock()
		d.names[ln.Addr()] = th.name
		d.mu.Unlock()
	}
	return ln, nil
}

func (d *tracedTransport) Dial(addr string) (transport.Endpoint, error) {
	s := d.t.start("transport.dial", d.t.ambient.Load())
	ep, err := d.inner.Dial(addr)
	s.end()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	target := d.names[addr]
	d.mu.Unlock()
	if target == "" {
		target = "GenericServer"
	}
	return &tracedEndpoint{inner: ep, t: d.t, name: "hop:" + target}, nil
}

// Stats forwards the TCP transport's counters.
func (d *tracedTransport) Stats() transport.StatsSnapshot { return d.inner.Stats() }

// tracedEndpoint times each call as one hop and stamps the hop's span
// into the message, so the serving handler's span parents on it. The
// hop's own parent is the client's span carried in the call's context
// or, for a component's upstream endpoint, the component's most
// recently started open request.
type tracedEndpoint struct {
	inner transport.Endpoint
	t     *tracer
	name  string
	owner *tracedHandler // the component calling through this endpoint, if any
}

func (e *tracedEndpoint) Call(m *wire.Message) (*wire.Message, error) {
	return e.timed(context.Background(), m, func() (*wire.Message, error) { return e.inner.Call(m) })
}

func (e *tracedEndpoint) CallContext(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	return e.timed(ctx, m, func() (*wire.Message, error) { return transport.Call(ctx, e.inner, m) })
}

func (e *tracedEndpoint) timed(ctx context.Context, m *wire.Message, call func() (*wire.Message, error)) (*wire.Message, error) {
	parent := spanFrom(ctx)
	if parent == nil && e.owner != nil {
		parent = e.owner.latest()
	}
	s := e.t.start(e.name, parent)
	if s == nil {
		return call()
	}
	prevT, prevS := m.TraceID, m.SpanID
	m.TraceID, m.SpanID = s.ids()
	resp, err := call()
	m.TraceID, m.SpanID = prevT, prevS
	s.end()
	return resp, err
}

func (e *tracedEndpoint) Close() error { return e.inner.Close() }

// tracedHandler times one component instance's request handling and
// keeps its open requests, under which the instance's outgoing calls
// nest.
type tracedHandler struct {
	inner transport.Handler
	t     *tracer
	name  string

	mu   sync.Mutex
	open []*openSpan
}

func (h *tracedHandler) Handle(m *wire.Message) *wire.Message {
	s := h.t.startRemote(h.name, m.TraceID, m.SpanID)
	if s == nil {
		return h.inner.Handle(m)
	}
	h.mu.Lock()
	h.open = append(h.open, s)
	h.mu.Unlock()
	resp := h.inner.Handle(m)
	h.mu.Lock()
	for i, o := range h.open {
		if o == s {
			h.open = append(h.open[:i], h.open[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
	s.end()
	return resp
}

// latest returns the instance's most recently started open request.
func (h *tracedHandler) latest() *openSpan {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.open) == 0 {
		return nil
	}
	return h.open[len(h.open)-1]
}

// tracedRegistry returns a registry whose factories activate the base
// registry's components through Activate, timing each activation,
// naming each handler after its component, and tying the instance's
// upstream endpoints to its handler.
func tracedRegistry(base *smock.Registry, t *tracer) (*smock.Registry, error) {
	reg := smock.NewRegistry()
	for _, name := range []string{
		spec.CompMailServer, spec.CompViewMailServer, spec.CompEncryptor,
		spec.CompDecryptor, spec.CompMailClient, spec.CompViewMailClient,
	} {
		name := name
		err := reg.Register(name, func(ctx *smock.ActivationContext) (transport.Handler, error) {
			th := &tracedHandler{t: t, name: name}
			for _, ep := range ctx.Upstreams {
				if te, ok := ep.(*tracedEndpoint); ok {
					te.owner = th
				}
			}
			s := t.start("smock.activate", t.ambient.Load())
			h, err := base.Activate(name, ctx)
			s.end()
			if err != nil {
				return nil, err
			}
			th.inner = h
			return th, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// scope is one benchmark caller's current span, read by its clients'
// endpoints on the caller's own goroutine.
type scope struct{ cur *openSpan }

func setScope(sc *scope, s *openSpan) {
	if sc != nil {
		sc.cur = s
	}
}

// scopedEndpoint decorates a client's endpoint (a generic proxy, or the
// endpoint a traced session dials) with its caller's scope, so the
// first hop of each call parents on the caller's current span.
type scopedEndpoint struct {
	inner transport.Endpoint
	sc    *scope
}

func (e *scopedEndpoint) Call(m *wire.Message) (*wire.Message, error) {
	return e.CallContext(context.Background(), m)
}

func (e *scopedEndpoint) CallContext(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	return transport.Call(withSpan(ctx, e.sc.cur), e.inner, m)
}

func (e *scopedEndpoint) Close() error { return e.inner.Close() }
