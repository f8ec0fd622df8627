// Package metrics is the kernel's one observability surface (paper §3.2:
// extensions "passively monitor system activity, and provide up-to-date
// performance information to applications"). It is a pull model: each
// subsystem keeps the counters it already keeps, as atomics on its own hot
// paths, and offers one Metrics method that emits them by name when
// someone reads. Nothing is registered and nothing is allocated until a
// reader asks, so a machine pays for observability only when observed.
//
// The package imports nothing from the tree, so every package can
// implement Source.
package metrics

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Emit receives one sample. name is a Prometheus metric name
// ("net_tcp_rtos"), optionally followed by a label set
// (`dispatch_raises{event="IP.PacketArrived"}`).
type Emit func(name string, v float64)

// Source is anything that reports samples: a dispatcher, a stack, a
// scheduler, a whole machine.
type Source interface{ Metrics(Emit) }

type sample struct {
	name string
	v    float64
}

// Write renders, in the Prometheus text format, every sample of srcs whose
// name starts with prefix: one "name value" line each, sorted by name.
func Write(w io.Writer, prefix string, srcs ...Source) error {
	var all []sample
	for _, src := range srcs {
		src.Metrics(func(name string, v float64) {
			if strings.HasPrefix(name, prefix) {
				all = append(all, sample{name, v})
			}
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	bw := bufio.NewWriter(w)
	for _, s := range all {
		bw.WriteString(s.name)
		bw.WriteByte(' ')
		if s.v == math.Trunc(s.v) && math.Abs(s.v) < 1<<53 {
			bw.WriteString(strconv.FormatInt(int64(s.v), 10))
		} else {
			bw.WriteString(strconv.FormatFloat(s.v, 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Value returns the sample src emits under name (labels included), or 0
// when it emits none.
func Value(src Source, name string) float64 {
	var v float64
	src.Metrics(func(n string, x float64) {
		if n == name {
			v = x
		}
	})
	return v
}
