package main

import (
	"fmt"

	"spin/internal/sim"
	"spin/internal/vnet"
)

// bulk is the dumbbell bulk-transfer workload. Every batch builds a fresh
// topology. Batch n builds it from the seed of variant n mod variants, so
// batches of one variant replay each other exactly.
type bulk struct {
	netInstance
	seed       uint64
	bottleneck vnet.LinkModel
	flowBytes  int
	variants   int
	// next is the variant the next batch runs.
	next int
}

const bulkFlows = 2

// lossyVariants is how many topology seeds tcp_bulk_lossy cycles through.
// Where the link's dice fall decides how a lossy transfer goes: in about one
// topology in nine a flow is set back during its first segments and stays
// half as slow again for the rest of its life. One topology per run would
// report whichever kind its seed drew; the medians over eight report the
// usual one.
const lossyVariants = 8

func setupBulkClean(seed uint64, sc scale) (instance, error) {
	return setupBulk(seed, vnet.LinkModel{Latency: 2 * sim.Millisecond}, sc.pick(8<<20, 64<<10), 1, sc)
}

func setupBulkLossy(seed uint64, sc scale) (instance, error) {
	return setupBulk(seed, vnet.LinkModel{
		Latency: 2 * sim.Millisecond,
		Loss:    0.01,
		Reorder: 0.02, ReorderDelay: 300 * sim.Microsecond,
	}, sc.pick(2<<20, 32<<10), lossyVariants, sc)
}

func setupBulk(seed uint64, bottleneck vnet.LinkModel, flowBytes, variants int, sc scale) (instance, error) {
	b := &bulk{seed: seed, bottleneck: bottleneck, flowBytes: flowBytes, variants: variants}
	// Warm-up: one short transfer over a topology of its own.
	if st, err := b.run(sc.pick(2<<20, 16<<10), 0); err != nil || st.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d failed, err %v", st.failed, err)
	}
	return b, nil
}

func (b *bulk) batch() (batchStats, error) {
	variant := b.next % b.variants
	b.next++
	return b.run(b.flowBytes, variant)
}

// run moves flowBytes per flow across a fresh dumbbell built from the seed
// of the given variant. An op is one MiB (or fraction) of payload the
// receiver verified byte by byte.
func (b *bulk) run(flowBytes, variant int) (batchStats, error) {
	edge := vnet.LinkModel{Latency: 100 * sim.Microsecond}
	in, err := vnet.Dumbbell(bulkFlows, bulkFlows, edge, b.bottleneck, b.seed*uint64(b.variants)+uint64(variant))
	if err != nil {
		return batchStats{}, err
	}
	b.adopt(in)
	convs := make([]vnet.Conversation, bulkFlows)
	for i := range convs {
		convs[i] = vnet.Conversation{From: fmt.Sprintf("l%d", i), To: fmt.Sprintf("r%d", i), Bytes: flowBytes}
	}
	res, err := vnet.RunConversations(in, convs, 0)
	if err != nil {
		return batchStats{}, err
	}
	mib := func(n int) int { return (n + 1<<20 - 1) >> 20 }
	st := batchStats{variant: variant, virt: sim.Duration(clusterNow(in.Cluster())), fingerprint: in.Fingerprint()}
	for _, r := range res {
		st.ops += mib(flowBytes)
		if !r.Complete || r.Corrupt || r.Received != flowBytes {
			st.fail("flow %s->%s: %+v", r.From, r.To, r)
			st.failed += mib(flowBytes) - 1
			continue
		}
		st.payloadBits += 8 * float64(r.Received)
		st.retransmits += r.Retransmits
	}
	return st, nil
}
