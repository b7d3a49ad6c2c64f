package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/fleet"
	"partsvc/internal/netmodel"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/sim"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// fleet-waves: the replan path. fleet.Manager tracks thousands of
// sessions over the case study on the simulation scheduler; a fixed,
// reversible cycle of WAN-link latency changes goes through the
// network monitor, and each change debounces into one replan wave
// (revalidate, memo, rewire). There is no data path at all. The
// planner dominates each wave, so wave time barely depends on the
// session count, and a change to the fleet layer alone barely moves
// this workload.

const (
	fleetSessions   = 2000
	fleetDebounceMS = 20
	fleetDeltaMS    = 900 // added to a WAN link's latency, then removed
)

// fleetShapes are the six (client node, user) request shapes sessions
// are spread over.
var fleetShapes = []shape{
	{node: topology.NYClient, user: "Alice"},
	{node: topology.NYExtra, user: "Bob"},
	{node: topology.SDClient, user: "Alice"},
	{node: topology.SDGateway, user: "Bob"},
	{node: topology.SeaClient, user: "Carol"},
	{node: topology.SeaGW, user: "Dave"},
}

// The WAN links the cycle degrades and restores, one at a time.
var fleetLinks = [][2]netmodel.NodeID{
	{topology.SDGateway, topology.SeaGW},
	{topology.NYServer, topology.SeaGW},
	{topology.NYServer, topology.SDGateway},
}

type fleetWaves struct {
	seed int64
	t    *tracer
	env  *sim.Env
	net  *netmodel.Network
	mon  *netmon.Monitor
	mgr  *fleet.Manager
	base []float64 // each cycle link's original latency

	reports  []fleet.WaveReport // filled by the manager's wave sink
	boot     fleet.WaveReport
	bootDeps []string
	errs     []string
	// Per timed cycle, per link change: the wave's counters.
	cycles [][]waveCounters

	// Time and allocations spent in the checks between waves.
	checkDur                time.Duration
	checkAllocs, checkBytes uint64
}

func newFleetWaves(seed int64, t *tracer) *fleetWaves {
	return &fleetWaves{seed: seed, t: t}
}

func (f *fleetWaves) unit() string { return "wave" }

// setup builds the manager the way psfctl adapt -fleet does (four
// shards, debounced, on the simulation scheduler, no planner tuning),
// with one wave worker and without the cutover governor. The governor
// would defer commits past the wave; every verdict commits inside its
// wave instead. With two workers, a wave's wall clock depends on how
// the seed's session names hash onto shards, which decides how evenly
// the plan computes split between the workers: up to 20 % between
// seeds for the same work. One worker makes it depend on the work.
func (f *fleetWaves) setup() error {
	f.env = sim.NewEnv()
	f.net = topology.CaseStudy()
	f.mon = netmon.New(f.net)
	f.mgr = fleet.New(fleet.Config{Shards: 4, Workers: 1, DebounceMS: fleetDebounceMS},
		spec.MailService(), f.net, f.mon, adapt.NewSimScheduler(f.env))
	f.mgr.OnWave(func(r fleet.WaveReport) { f.reports = append(f.reports, r) })
	if _, err := f.mgr.AddPrimary(spec.CompMailServer, topology.NYServer); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(f.seed))
	for i := 0; i < fleetSessions; i++ {
		sh := fleetShapes[rng.Intn(len(fleetShapes))]
		f.mgr.AddSession(fmt.Sprintf("s%d-%d", f.seed, i), sh.request())
	}
	f.boot = f.mgr.Bootstrap()
	if f.boot.Failed != 0 {
		return fmt.Errorf("bootstrap: %d sessions failed", f.boot.Failed)
	}
	f.reports = nil
	for _, s := range f.mgr.Sessions()[:len(fleetShapes)*4] {
		f.bootDeps = append(f.bootDeps, s.Deployment().String())
	}
	f.verify("bootstrap")
	for _, l := range fleetLinks {
		link, ok := f.net.Link(l[0], l[1])
		if !ok {
			return fmt.Errorf("no link %s~%s", l[0], l[1])
		}
		f.base = append(f.base, link.LatencyMS)
	}
	f.mgr.Start()
	return nil
}

// warmup degrades and restores the first link once. Besides warming
// the planners, it brings the fleet near the regime in which restore
// waves alternate between two configurations, so the timed cycles see
// a steadier mix of waves than the cycles right after bootstrap (see
// README.md).
func (f *fleetWaves) warmup() error {
	for _, down := range []bool{true, false} {
		if _, _, err := f.wave(0, down); err != nil {
			return err
		}
		f.verify("warm-up")
	}
	return nil
}

// wave applies one latency change through the monitor and runs the
// simulation past the debounce, which runs the replan wave. A change
// no session can be affected by (a degraded link no deployment uses)
// runs no wave; ran reports whether one ran.
func (f *fleetWaves) wave(link int, degrade bool) (d time.Duration, ran bool, err error) {
	lat := f.base[link]
	if degrade {
		lat += fleetDeltaMS
	}
	n := len(f.reports)
	t0 := time.Now()
	root := f.t.start("fleet.wave", nil)
	sp := f.t.start("netmon.report", root)
	err = f.mon.ReportLink(fleetLinks[link][0], fleetLinks[link][1], lat, -1, nil)
	sp.end()
	if err != nil {
		root.end()
		return 0, false, err
	}
	sp = f.t.start("fleet.replan", root)
	f.env.RunUntil(f.env.Now() + fleetDebounceMS + 1)
	sp.end()
	d = time.Since(t0)
	ran = len(f.reports) == n+1
	if !ran {
		root.rename("fleet.no_wave")
	}
	root.end()
	if len(f.reports) > n+1 {
		return d, true, fmt.Errorf("one link change ran %d waves", len(f.reports)-n)
	}
	return d, ran, nil
}

// cycle degrades and restores each WAN link in turn and checks the
// fleet after every change. It returns the times of the waves that ran.
func (f *fleetWaves) cycle() ([]time.Duration, error) {
	var waves []time.Duration
	var counters []waveCounters
	for link := range fleetLinks {
		for _, down := range []bool{true, false} {
			d, ran, err := f.wave(link, down)
			if err != nil {
				return waves, err
			}
			var c waveCounters
			if ran {
				c = countersOf(f.reports[len(f.reports)-1])
				waves = append(waves, d)
			}
			counters = append(counters, c)
			f.verify(fmt.Sprintf("cycle %d change %d", len(f.cycles), len(counters)-1))
		}
	}
	f.cycles = append(f.cycles, counters)
	return waves, nil
}

// verify checks every session's deployment against the current
// network with planner.Verify, and the fleet's instance count against
// the placements its sessions use.
func (f *fleetWaves) verify(when string) {
	t0, m0 := time.Now(), snapMem()
	defer func() {
		m1 := snapMem()
		f.checkDur += time.Since(t0)
		f.checkAllocs += m1.Mallocs - m0.Mallocs
		f.checkBytes += m1.TotalAlloc - m0.TotalAlloc
	}()
	pl := planner.New(spec.MailService(), f.net)
	seen := map[string]bool{}
	var deps []*planner.Deployment
	for _, s := range f.mgr.Sessions() {
		dep := s.Deployment()
		deps = append(deps, dep)
		if dep == nil {
			continue
		}
		key := s.Req.Fingerprint() + "|" + dep.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		if err := pl.Verify(dep, s.Req); err != nil {
			f.errs = append(f.errs, fmt.Sprintf("%s: session %s: %v", when, s.Name, err))
		}
	}
	if err := checkFleetInstances(f.mgr.Instances(), deps); err != nil {
		f.errs = append(f.errs, fmt.Sprintf("%s: %v", when, err))
	}
}

// fleetCycleTime is a cycle's nominal wall clock on a 2-vCPU host.
const fleetCycleTime = 12 * time.Second

// fleetCycles is the number of whole cycles a timed phase of length
// dur runs. The count is fixed rather than read off the clock so every
// run times the same mix of waves: consecutive cycles run different
// waves, and a median over a mix that changed with the host's speed
// would jump between them.
func fleetCycles(dur time.Duration) int {
	if n := int(dur / fleetCycleTime); n > 1 {
		return n
	}
	return 1
}

// run times fleetCycles(dur) whole cycles; the checks between waves
// are excluded from the time and allocation figures.
func (f *fleetWaves) run(dur time.Duration) *phase {
	p := &phase{}
	first := len(f.reports)
	before := snapMem()
	check0, allocs0, bytes0 := f.checkDur, f.checkAllocs, f.checkBytes
	start := time.Now()
	for c := 0; c < fleetCycles(dur); c++ {
		waves, err := f.cycle()
		p.attempted += int64(len(fleetLinks) * 2)
		if err != nil {
			p.failed++
			f.errs = append(f.errs, err.Error())
			break
		}
		var cycle time.Duration
		for _, d := range waves {
			p.main = append(p.main, ms(d))
			cycle += d
		}
		p.side = append(p.side, ms(cycle))
	}
	p.elapsed = time.Since(start) - (f.checkDur - check0)
	after := snapMem()
	after.Mallocs -= f.checkAllocs - allocs0
	after.TotalAlloc -= f.checkBytes - bytes0
	reps := f.reports[first:]
	p.units = len(reps)
	p.rate = float64(p.units) / p.elapsed.Seconds()
	var computes, hits, routes, cutovers, unchanged float64
	for _, r := range reps {
		computes += float64(r.PlanComputes)
		hits += float64(r.MemoHits)
		routes += float64(r.RouteLookups)
		cutovers += float64(r.Cutovers)
		unchanged += float64(r.Unchanged)
	}
	n := float64(len(reps))
	p.counters = map[string]float64{
		"fleet.plan_computes_per_wave": ratio(computes, n),
		"fleet.memo_hit_rate":          ratio(hits, hits+computes),
		"fleet.route_lookups_per_wave": ratio(routes, n),
		"fleet.cutovers_per_wave":      ratio(cutovers, n),
		"fleet.unchanged_per_wave":     ratio(unchanged, n),
	}
	addMem(p.counters, before, after, n)
	return p
}

// layers attributes each traced wave's time to the monitor report and
// the replan wave it triggers, per wave.
func (f *fleetWaves) layers(tree *spanTree) map[string]float64 {
	per, _ := tree.blockingPath("fleet.wave", fleetLayer)
	return per
}

// path is a wave's blocking path (degrade and restore waves alike).
func (f *fleetWaves) path(tree *spanTree) (map[string]float64, samples) {
	return tree.blockingPath("fleet.wave", fleetLayer)
}

func fleetLayer(name string) string {
	switch name {
	case "netmon.report":
		return "netmon.report_ms"
	case "fleet.replan":
		return "fleet.replan_ms"
	}
	return "wave_self_ms"
}

func (f *fleetWaves) check() error {
	errs := append([]string(nil), f.errs...)
	if err := checkWaves(f.cycles); err != nil {
		errs = append(errs, err.Error())
	}
	return joinErrs(errs)
}

// digest is the seed-determined checked output: the bootstrap wave and
// deployments, and the first timed cycle's per-wave counters. Both runs
// of a traced run complete at least that cycle.
func (f *fleetWaves) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "boot=%+v;", countersOf(f.boot))
	for _, d := range f.bootDeps {
		b.WriteString(d + ";")
	}
	if len(f.cycles) > 0 {
		fmt.Fprintf(&b, "cycle=%+v", f.cycles[0])
	}
	return b.String()
}

func (f *fleetWaves) close() {
	if f.mgr != nil {
		f.mgr.Stop()
	}
	if f.env != nil {
		f.env.Stop()
	}
}
