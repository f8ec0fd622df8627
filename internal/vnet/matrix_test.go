package vnet

import (
	"fmt"
	"testing"

	"spin/internal/sim"
)

// TestConversationMatrix sweeps the default matrix — loss × reorder ×
// partition × machine count, 14 cells — and requires every transfer in
// every cell to complete byte-exactly. Each cell also replays: running it
// twice must reproduce the same fingerprint.
func TestConversationMatrix(t *testing.T) {
	matrix := DefaultMatrix()
	if len(matrix) < 12 {
		t.Fatalf("matrix has %d cells, want >= 12", len(matrix))
	}
	for _, cfg := range matrix {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			in, results, err := RunMatrixCell(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != cfg.Conversations {
				t.Fatalf("got %d results, want %d", len(results), cfg.Conversations)
			}
			var retx int64
			for _, r := range results {
				if !r.Complete {
					t.Errorf("%s->%s:%d incomplete (%d bytes)", r.From, r.To, r.Port, r.Received)
				}
				if r.Corrupt {
					t.Errorf("%s->%s:%d corrupted", r.From, r.To, r.Port)
				}
				retx += r.Retransmits
			}
			// Lossy and partitioned cells must actually have hurt.
			if (cfg.Loss > 0 || cfg.Partition) && retx == 0 {
				t.Error("adverse cell saw zero retransmissions — faults not exercised")
			}
			// And no more than they had to: at most two retransmissions
			// for each frame a link lost or delayed (measured: never more
			// than one), none on a clean cell. Go-back-N by timeout broke
			// this in three cells on transfers this short.
			var faults int64
			for _, name := range in.Links() {
				ab, ba := in.Link(name).Stats()
				faults += ab.Lost + ab.Down + ab.Reordered + ba.Lost + ba.Down + ba.Reordered
			}
			if retx > 2*faults {
				t.Errorf("%d retransmissions for %d frames lost, cut off or reordered, want at most 2 each", retx, faults)
			}
			// Replay: the same cell reruns to the same fingerprint.
			if in2, _, err := RunMatrixCell(cfg); err != nil {
				t.Fatalf("replay: %v", err)
			} else if fp, fp2 := in.Fingerprint(), in2.Fingerprint(); fp2 != fp {
				t.Errorf("replay fingerprint %#x != first run %#x", fp2, fp)
			}
			// Run to quiescence, no connection is left holding data it
			// could not deliver or a timer for data nobody owes it.
			in.Run(0)
			for _, name := range in.Machines() {
				if queued, armed := in.Machine(name).Stack.TCP().Unsettled(); queued != 0 || armed != 0 {
					t.Errorf("%s at rest: %d connections with out-of-order data queued, %d with the retransmit timer running",
						name, queued, armed)
				}
			}
		})
	}
}

// TestTopologySmoke32 is the CI smoke: boot 32 machines in a star, run one
// matrix-style config over them, verify completion and that a digest
// replays — small enough for every CI run, large enough to exercise the
// switch and cluster at fan-in.
func TestTopologySmoke32(t *testing.T) {
	cfg := MatrixConfig{
		Name: "smoke32", Machines: 32,
		Loss: 0.01, Reorder: 0.05,
		Conversations: 8, Bytes: 8 << 10, Seed: 3232,
	}
	in, results, err := RunMatrixCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Complete || r.Corrupt {
			t.Fatalf("smoke transfer failed: %+v", r)
		}
	}
	in2, _, err := RunMatrixCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fp, fp2 := in.Fingerprint(), in2.Fingerprint(); fp != fp2 {
		t.Fatalf("smoke digest mismatch: %#x vs %#x", fp, fp2)
	}
}

// TestMatrixCellsDistinct: different cells produce different traffic; the
// fingerprint actually depends on the configuration, not just the code.
func TestMatrixCellsDistinct(t *testing.T) {
	a := MatrixConfig{Name: "a", Machines: 4, Conversations: 2, Bytes: 4 << 10, Seed: 1}
	b := a
	b.Name, b.Loss, b.Seed = "b", 0.05, 1
	inA, _, err := RunMatrixCell(a)
	if err != nil {
		t.Fatal(err)
	}
	inB, _, err := RunMatrixCell(b)
	if err != nil {
		t.Fatal(err)
	}
	if fpA, fpB := inA.Fingerprint(), inB.Fingerprint(); fpA == fpB {
		t.Errorf("clean and lossy cells share fingerprint %#x", fpA)
	}
}

// TestConversationHarnessErrors: misuse surfaces as errors, not panics.
func TestConversationHarnessErrors(t *testing.T) {
	in, err := Star(2, edge, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunConversations(in, []Conversation{{From: "h0", To: "nope", Bytes: 10}}, sim.Time(sim.Second)); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := RunConversations(in, []Conversation{{From: "nope", To: "h0", Bytes: 10}}, sim.Time(sim.Second)); err == nil {
		t.Error("unknown machine accepted")
	}
}

// TestConversationDeadline: a transfer that cannot finish (permanently
// downed spoke) reports incomplete instead of hanging.
func TestConversationDeadline(t *testing.T) {
	in, err := Star(2, edge, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.Link("h0~s0").SetDown(true)
	results, err := RunConversations(in, []Conversation{
		{From: "h0", To: "h1", Bytes: 4 << 10},
	}, sim.Time(2*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Complete {
		t.Error("transfer completed across a dead link")
	}
	if results[0].Received != 0 {
		t.Errorf("received %d bytes across a dead link", results[0].Received)
	}
}

func init() {
	// Guard: the matrix template must pair distinct machines in every cell
	// (From == To would short-circuit the network entirely).
	for _, cfg := range DefaultMatrix() {
		for i := 0; i < cfg.Conversations; i++ {
			from := i % cfg.Machines
			to := (i + cfg.Machines/2) % cfg.Machines
			if from == to {
				panic(fmt.Sprintf("matrix cell %s pairs h%d with itself", cfg.Name, from))
			}
		}
	}
}
