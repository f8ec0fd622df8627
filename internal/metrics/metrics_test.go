package metrics

import (
	"bytes"
	"math"
	"testing"
)

type fixed map[string]float64

func (f fixed) Metrics(emit Emit) {
	for n, v := range f {
		emit(n, v)
	}
}

func TestWriteSortsFiltersAndFormats(t *testing.T) {
	a := fixed{"net_rx": 3, `net_drop{reason="ttl"}`: 1, "lb_budget_tokens": 2.8}
	b := fixed{"net_tx": 1 << 40, "net_ratio": math.Inf(1)}
	var buf bytes.Buffer
	if err := Write(&buf, "net_", a, b); err != nil {
		t.Fatal(err)
	}
	want := "net_drop{reason=\"ttl\"} 1\nnet_ratio +Inf\nnet_rx 3\nnet_tx 1099511627776\n"
	if buf.String() != want {
		t.Errorf("Write =\n%s\nwant\n%s", buf.String(), want)
	}
	buf.Reset()
	if err := Write(&buf, "", a); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "lb_budget_tokens 2.8\nnet_drop{reason=\"ttl\"} 1\nnet_rx 3\n" {
		t.Errorf("unfiltered Write = %q", got)
	}
}

func TestValue(t *testing.T) {
	src := fixed{"a": 1, `b{k="v"}`: 2}
	if v := Value(src, `b{k="v"}`); v != 2 {
		t.Errorf("Value(b) = %v", v)
	}
	if v := Value(src, "missing"); v != 0 {
		t.Errorf("Value(missing) = %v", v)
	}
}
