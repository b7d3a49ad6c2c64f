package main

import (
	"bytes"
	"fmt"

	"partsvc/internal/fleet"
	"partsvc/internal/mail"
	"partsvc/internal/planner"
)

// Output checks. Each depends only on what the program returned, never
// on timing, and each has a negative test in checks_test.go.

// checkDeployment compares a deployment with its known-good rendering.
func checkDeployment(got, want string) error {
	if got != want {
		return fmt.Errorf("deployment %q, want %q", got, want)
	}
	return nil
}

// checkInbox verifies that a receive returned exactly the seeded
// messages: each once, with its sender, subject and exact body.
func checkInbox(got []*mail.Message, want []seededMsg) error {
	if len(got) != len(want) {
		return fmt.Errorf("inbox holds %d messages, want %d", len(got), len(want))
	}
	byID := map[uint64]*mail.Message{}
	for _, m := range got {
		if byID[m.ID] != nil {
			return fmt.Errorf("message %d delivered twice", m.ID)
		}
		byID[m.ID] = m
	}
	for _, w := range want {
		m := byID[w.ID]
		if m == nil {
			return fmt.Errorf("message %d missing", w.ID)
		}
		if m.From != w.From || m.Subject != w.Subj || !bytes.Equal(m.Body, w.Body) {
			return fmt.Errorf("message %d differs from what was sent", w.ID)
		}
	}
	return nil
}

// checkAcked verifies that a recipient's inbox holds every
// acknowledged send exactly once, byte-identical, and nothing else. It
// also returns how many acknowledged sends are missing.
func checkAcked(inbox []*mail.Message, acks []ack) (lost int, err error) {
	byID := map[uint64]*mail.Message{}
	for _, m := range inbox {
		if byID[m.ID] != nil {
			return 0, fmt.Errorf("message %d delivered twice", m.ID)
		}
		byID[m.ID] = m
	}
	var missing []uint64
	for _, a := range acks {
		m := byID[a.id]
		if m == nil {
			missing = append(missing, a.id)
			continue
		}
		if m.From != senderName(a.op.site, a.op.sender) || m.Subject != a.op.subj || m.Sensitivity != a.op.sens || !bytes.Equal(m.Body, a.op.body) {
			return len(missing), fmt.Errorf("message %d differs from what was sent", a.id)
		}
	}
	if len(missing) > 0 {
		return len(missing), fmt.Errorf("%d of %d acknowledged sends missing (first id %d)", len(missing), len(acks), missing[0])
	}
	if len(inbox) != len(acks) {
		return 0, fmt.Errorf("inbox holds %d messages for %d acknowledged sends", len(inbox), len(acks))
	}
	return 0, nil
}

// baseline is the runtime state a torn-down session must leave behind.
type baseline struct {
	instances, lookupEntries, reuseSet int
}

func (b baseline) String() string {
	return fmt.Sprintf("%d instances, %d lookup entries, %d reusable placements", b.instances, b.lookupEntries, b.reuseSet)
}

// checkBaseline verifies that teardown returned the runtime to its
// state before the session.
func checkBaseline(got, want baseline) error {
	if got != want {
		return fmt.Errorf("after teardown: %v, want %v", got, want)
	}
	return nil
}

// checkFleetInstances verifies that the fleet's shared-instance count
// equals the number of distinct placements its sessions use.
func checkFleetInstances(instances int, deps []*planner.Deployment) error {
	keys := map[string]bool{}
	for _, d := range deps {
		if d == nil {
			return fmt.Errorf("session without a deployment")
		}
		for _, p := range d.Placements {
			keys[p.Key()] = true
		}
	}
	if instances != len(keys) {
		return fmt.Errorf("fleet holds %d instances for %d distinct placements", instances, len(keys))
	}
	return nil
}

// waveCounters are the counters of the wave one link change ran (all
// zero when it ran none). For one seed they repeat exactly from run to
// run, traced or not; they are not the same from cycle to cycle,
// because a cycle leaves the fleet with a different reuse set than it
// found (see README.md).
type waveCounters struct {
	Sessions, PlanComputes, MemoHits, MemoLookups, RouteLookups int
	Cutovers, Deferred, Suppressed, Unchanged, Failed           int
}

func countersOf(r fleet.WaveReport) waveCounters {
	return waveCounters{
		Sessions: r.Sessions, PlanComputes: r.PlanComputes, MemoHits: r.MemoHits,
		MemoLookups: r.MemoLookups, RouteLookups: r.RouteLookups, Cutovers: r.Cutovers,
		Deferred: r.Deferred, Suppressed: r.Suppressed, Unchanged: r.Unchanged, Failed: r.Failed,
	}
}

// checkWaves verifies that no wave failed a session.
func checkWaves(cycles [][]waveCounters) error {
	for c, cyc := range cycles {
		for i, w := range cyc {
			if w.Failed != 0 {
				return fmt.Errorf("cycle %d change %d: %d failed sessions", c, i, w.Failed)
			}
		}
	}
	return nil
}
