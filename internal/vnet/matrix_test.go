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

// MatrixConfig is one cell of the conversation matrix: a star topology of
// Machines hosts whose spokes all carry Loss/Reorder, Conversations
// concurrent pairwise transfers of Bytes each, optionally partitioned
// mid-flight (one spoke flapped down and up).
type MatrixConfig struct {
	Name          string
	Machines      int
	Loss, Reorder float64
	Partition     bool
	Conversations int
	Bytes         int
	Seed          uint64
}

// matrixDeadline is the virtual-time budget for one matrix cell: generous
// enough for lossy, partitioned transfers (the retransmission timeout
// starts at 200ms virtual and doubles), tight enough that a wedged
// transfer fails fast.
const matrixDeadline = sim.Time(120 * sim.Second)

// RunMatrixCell builds the cell's topology and drives its conversations.
// Every transfer must complete with zero corruption; the first violation is
// the returned error. The topology comes back as the conversations left it,
// for its fingerprint, its links' counters and its stacks.
func RunMatrixCell(cfg MatrixConfig) (*Internet, []ConvResult, error) {
	spoke := LinkModel{
		Latency:      200 * sim.Microsecond,
		Loss:         cfg.Loss,
		Reorder:      cfg.Reorder,
		ReorderDelay: 300 * sim.Microsecond,
	}
	in, err := Star(cfg.Machines, spoke, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Partition {
		// Cut host 0's spoke 1ms in — early enough that no transfer over
		// it has finished — and heal it at 600ms; TCP must ride it out.
		if err := in.FlapLink("h0~s0", sim.Time(1*sim.Millisecond), sim.Time(600*sim.Millisecond)); err != nil {
			return nil, nil, err
		}
	}
	convs := make([]Conversation, cfg.Conversations)
	for i := range convs {
		convs[i] = Conversation{
			From:  fmt.Sprintf("h%d", i%cfg.Machines),
			To:    fmt.Sprintf("h%d", (i+cfg.Machines/2)%cfg.Machines),
			Bytes: cfg.Bytes,
		}
	}
	results, err := RunConversations(in, convs, matrixDeadline)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range results {
		if !r.Complete {
			return in, results, fmt.Errorf("vnet: %s: %s->%s:%d incomplete (%d/%d bytes)",
				cfg.Name, r.From, r.To, r.Port, r.Received, cfg.Bytes)
		}
		if r.Corrupt {
			return in, results, fmt.Errorf("vnet: %s: %s->%s:%d corrupted", cfg.Name, r.From, r.To, r.Port)
		}
	}
	return in, results, nil
}

// DefaultMatrix is the harness's standard sweep: loss × reorder ×
// partition × machine count, every cell a complete seeded scenario.
func DefaultMatrix() []MatrixConfig {
	var out []MatrixConfig
	for _, machines := range []int{2, 4, 8} {
		for _, loss := range []float64{0, 0.05} {
			for _, reorder := range []float64{0, 0.1} {
				out = append(out, MatrixConfig{
					Name:          fmt.Sprintf("m%d/loss%.2f/reorder%.1f", machines, loss, reorder),
					Machines:      machines,
					Loss:          loss,
					Reorder:       reorder,
					Conversations: machines / 2,
					Bytes:         16 << 10,
					Seed:          uint64(machines)*1000 + uint64(loss*100)*10 + uint64(reorder*10),
				})
			}
		}
	}
	// Partition cells: clean and lossy.
	for _, loss := range []float64{0, 0.02} {
		out = append(out, MatrixConfig{
			Name:          fmt.Sprintf("m4/partition/loss%.2f", loss),
			Machines:      4,
			Loss:          loss,
			Partition:     true,
			Conversations: 2,
			Bytes:         32 << 10,
			Seed:          7_000 + uint64(loss*100),
		})
	}
	return out
}
