package main

import (
	"strings"
	"testing"

	"partsvc/internal/mail"
	"partsvc/internal/planner"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// Each checker accepts correct outputs and rejects the defect it
// guards against.

func seededInbox() ([]seededMsg, []*mail.Message) {
	want := []seededMsg{
		{ID: 1, From: "Dave", Subj: "a", Body: []byte("first body"), Sens: 1},
		{ID: 2, From: "Dave", Subj: "b", Body: []byte("second body"), Sens: 2},
	}
	var got []*mail.Message
	for _, w := range want {
		got = append(got, &mail.Message{ID: w.ID, From: w.From, To: "Alice", Subject: w.Subj,
			Body: append([]byte(nil), w.Body...), Sensitivity: w.Sens})
	}
	return want, got
}

func TestCheckInboxRejectsFlippedByte(t *testing.T) {
	want, got := seededInbox()
	if err := checkInbox(got, want); err != nil {
		t.Fatalf("correct inbox rejected: %v", err)
	}
	got[1].Body[3] ^= 0x01
	if err := checkInbox(got, want); err == nil {
		t.Fatal("inbox with a flipped body byte accepted")
	}
}

func TestCheckInboxRejectsDuplicateAndMissing(t *testing.T) {
	want, got := seededInbox()
	if err := checkInbox([]*mail.Message{got[0], got[0]}, want); err == nil {
		t.Fatal("inbox delivering one message twice accepted")
	}
	if err := checkInbox(got[:1], want); err == nil {
		t.Fatal("inbox missing a message accepted")
	}
}

func TestCheckAckedRejectsFlippedByteLossAndExtra(t *testing.T) {
	op := &mailOp{site: 1, send: true, sender: 3, to: "sink007", subj: "t9", body: []byte("payload"), sens: 4}
	acks := []ack{{id: 42, op: op}}
	msg := func() *mail.Message {
		return &mail.Message{ID: 42, From: senderName(1, 3), To: op.to, Subject: op.subj,
			Body: []byte("payload"), Sensitivity: 4}
	}
	if _, err := checkAcked([]*mail.Message{msg()}, acks); err != nil {
		t.Fatalf("correct inbox rejected: %v", err)
	}
	flipped := msg()
	flipped.Body[0] ^= 0x80
	if _, err := checkAcked([]*mail.Message{flipped}, acks); err == nil {
		t.Fatal("acknowledged send with a flipped body byte accepted")
	}
	if lost, err := checkAcked(nil, acks); err == nil || lost != 1 {
		t.Fatalf("lost acknowledged send not reported: lost %d, %v", lost, err)
	}
	extra := msg()
	extra.ID = 43
	if _, err := checkAcked([]*mail.Message{msg(), extra}, acks); err == nil {
		t.Fatal("unacknowledged extra message accepted")
	}
}

func TestCheckDeploymentRejectsWrongPlacement(t *testing.T) {
	for i, want := range churnDeployments {
		if err := checkDeployment(want, want); err != nil {
			t.Fatalf("known-good deployment rejected: %v", err)
		}
		wrong := strings.Replace(want, "@sea-2", "@sea-1", 1)
		wrong = strings.Replace(wrong, "Decryptor@ny-1", "Decryptor@sd-2", 1)
		wrong = strings.Replace(wrong, "MailClient@ny-2", "MailClient@ny-3", 1)
		if wrong == want {
			t.Fatalf("shape %d: test did not alter a placement", i)
		}
		if err := checkDeployment(wrong, want); err == nil {
			t.Fatalf("shape %d: wrong placement %q accepted", i, wrong)
		}
	}
}

func TestCheckBaselineRejectsLeakedInstance(t *testing.T) {
	base := baseline{instances: 1, lookupEntries: 1, reuseSet: 1}
	if err := checkBaseline(base, base); err != nil {
		t.Fatalf("clean teardown rejected: %v", err)
	}
	leaked := base
	leaked.instances++
	if err := checkBaseline(leaked, base); err == nil {
		t.Fatal("leaked instance accepted")
	}
	stale := base
	stale.reuseSet++
	if err := checkBaseline(stale, base); err == nil {
		t.Fatal("leaked reuse-set entry accepted")
	}
}

// fleetDeployment plans one real deployment on the case study.
func fleetDeployment(t *testing.T) (*planner.Planner, *planner.Deployment, planner.Request) {
	t.Helper()
	pl := planner.New(spec.MailService(), topology.CaseStudy())
	primary, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		t.Fatal(err)
	}
	pl.AddExisting(primary)
	req := fig6Shapes[1].request()
	dep, err := pl.PlanVia(pl.Preferred(), req)
	if err != nil {
		t.Fatal(err)
	}
	return pl, dep, req
}

func TestCheckFleetInstancesRejectsLeakedInstance(t *testing.T) {
	_, dep, _ := fleetDeployment(t)
	n := len(dep.Placements)
	if err := checkFleetInstances(n, []*planner.Deployment{dep, dep}); err != nil {
		t.Fatalf("shared placements counted wrongly: %v", err)
	}
	if err := checkFleetInstances(n+1, []*planner.Deployment{dep}); err == nil {
		t.Fatal("leaked fleet instance accepted")
	}
	if err := checkFleetInstances(n, []*planner.Deployment{dep, nil}); err == nil {
		t.Fatal("session without a deployment accepted")
	}
}

// The fleet check runs planner.Verify on every session's deployment; a
// wrong placement must fail it.
func TestFleetVerifyRejectsWrongPlacement(t *testing.T) {
	pl, dep, req := fleetDeployment(t)
	if err := pl.Verify(dep, req); err != nil {
		t.Fatalf("planned deployment rejected: %v", err)
	}
	wrong := dep.Clone()
	for i, p := range wrong.Placements {
		if p.Component == spec.CompViewMailServer {
			wrong.Placements[i].Node = topology.SeaGW // trust 2 cannot host a TrustLevel=4 view
		}
	}
	if err := pl.Verify(wrong, req); err == nil {
		t.Fatalf("deployment %v with a misplaced view accepted", wrong)
	}
}

func TestCheckWavesRejectsFailedSession(t *testing.T) {
	ok := [][]waveCounters{{{Sessions: 10, Cutovers: 10}, {}}}
	if err := checkWaves(ok); err != nil {
		t.Fatalf("clean waves rejected: %v", err)
	}
	bad := [][]waveCounters{{{Sessions: 10, Cutovers: 9, Failed: 1}}}
	if err := checkWaves(bad); err == nil {
		t.Fatal("wave with a failed session accepted")
	}
}
