package domain

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"spin/internal/safe"
)

// refDomain is a reference linker that copies symbols into each domain: an
// export map filled at Create and merged at Combine, later domains winning.
type refDomain struct {
	exports    map[string]safe.Symbol
	unresolved map[string][]safe.Symbol
}

func refCreate(obj *safe.ObjectFile) *refDomain {
	d := &refDomain{exports: map[string]safe.Symbol{}, unresolved: map[string][]safe.Symbol{}}
	for _, s := range obj.Exports() {
		d.exports[s.Name] = s
	}
	for _, s := range obj.Imports() {
		d.unresolved[s.Name] = append(d.unresolved[s.Name], s)
	}
	return d
}

func refCombine(ds ...*refDomain) *refDomain {
	agg := &refDomain{exports: map[string]safe.Symbol{}, unresolved: map[string][]safe.Symbol{}}
	for _, d := range ds {
		if d == nil {
			continue
		}
		for n, s := range d.exports {
			agg.exports[n] = s
		}
		for n, slots := range d.unresolved {
			agg.unresolved[n] = append(agg.unresolved[n], slots...)
		}
	}
	return agg
}

func refResolve(source, target *refDomain) (failed bool) {
	for name, slots := range target.unresolved {
		exp, ok := source.exports[name]
		if !ok {
			continue
		}
		var remaining []safe.Symbol
		for _, slot := range slots {
			if safe.Patch(slot, exp) != nil {
				failed = true
				remaining = append(remaining, slot)
			}
		}
		if len(remaining) == 0 {
			delete(target.unresolved, name)
		} else {
			target.unresolved[name] = remaining
		}
	}
	return failed
}

func (d *refDomain) names() []string {
	var out []string
	for n := range d.exports {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (d *refDomain) unresolvedNames() []string {
	out := []string{}
	for n, slots := range d.unresolved {
		if len(slots) > 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

var oracleNames = []string{"A.F", "B.F", "C.F", "D.F", "E.F", "F.F"}

// oracleSymbol is one export or import of a generated module. An export
// returns its id; a string-typed symbol conflicts with an int-typed one of
// the same name.
type oracleSymbol struct {
	name    string
	id      int
	text    bool
	exports bool
}

// build makes the module's object file, with fresh import slots appended to
// slots, so the domains under test and the reference each patch their own.
func build(name string, syms []oracleSymbol, slots *[]any) *safe.ObjectFile {
	o := safe.NewObjectFile(name)
	for _, s := range syms {
		switch {
		case s.exports && s.text:
			id := s.id
			o.Export(s.name, func() string { return fmt.Sprint(id) })
		case s.exports:
			id := s.id
			o.Export(s.name, func() int { return id })
		case s.text:
			slot := new(func() string)
			*slots = append(*slots, slot)
			o.Import(s.name, slot)
		default:
			slot := new(func() int)
			*slots = append(*slots, slot)
			o.Import(s.name, slot)
		}
	}
	return o.Sign(safe.Compiler)
}

// symbolValue names what a symbol's function, or an import slot's patched
// function, returns; "-" for an empty slot.
func symbolValue(v any) string {
	switch f := v.(type) {
	case func() int:
		return fmt.Sprint(f())
	case func() string:
		return "s" + f()
	case *func() int:
		if *f == nil {
			return "-"
		}
		return symbolValue(*f)
	case *func() string:
		if *f == nil {
			return "-"
		}
		return symbolValue(*f)
	}
	return fmt.Sprintf("?%T", v)
}

// TestDomainsMatchCopyingLinker builds random modules whose export names
// overlap, creates their domains, and applies random Combines (of domains
// and of earlier aggregates, with nils and repeats) and Resolves. After
// every step each domain must answer LookupExport, ExportedNames and
// Unresolved as the copying reference does, and Resolve must patch the same
// slots with the same exports and fail where it fails.
func TestDomainsMatchCopyingLinker(t *testing.T) {
	for seed := range uint64(300) {
		rng := rand.New(rand.NewPCG(seed, 58))
		var got []*T
		var want []*refDomain
		var gotSlots, wantSlots []any
		id := 0
		for m := range 2 + rng.IntN(5) {
			var syms []oracleSymbol
			for range rng.IntN(7) {
				id++
				syms = append(syms, oracleSymbol{
					name:    oracleNames[rng.IntN(len(oracleNames))],
					id:      id,
					text:    rng.IntN(5) == 0,
					exports: rng.IntN(2) == 0,
				})
			}
			name := fmt.Sprintf("m%d", m)
			d, err := Create(build(name, syms, &gotSlots))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, d)
			want = append(want, refCreate(build(name, syms, &wantSlots)))
		}
		var log []string
		check := func() {
			t.Helper()
			for i, d := range got {
				ref := want[i]
				if g, w := d.ExportedNames(), ref.names(); !slices.Equal(g, w) {
					t.Fatalf("seed %d after %v: domain %d exports %v, want %v", seed, log, i, g, w)
				}
				if g, w := d.Unresolved(), ref.unresolvedNames(); !slices.Equal(g, w) {
					t.Fatalf("seed %d after %v: domain %d unresolved %v, want %v", seed, log, i, g, w)
				}
				for _, n := range append(oracleNames, "Z.F") {
					gs, gok := d.LookupExport(n)
					ws, wok := ref.exports[n]
					if gok != wok || gok && symbolValue(gs.Value.Interface()) != symbolValue(ws.Value.Interface()) {
						t.Fatalf("seed %d after %v: domain %d LookupExport(%s) differs", seed, log, i, n)
					}
				}
			}
			for i := range gotSlots {
				if g, w := symbolValue(gotSlots[i]), symbolValue(wantSlots[i]); g != w {
					t.Fatalf("seed %d after %v: slot %d holds %s, want %s", seed, log, i, g, w)
				}
			}
		}
		check()
		for range 12 {
			if rng.IntN(3) == 0 {
				var parts []int
				for range 1 + rng.IntN(4) {
					parts = append(parts, rng.IntN(len(got)+1)-1)
				}
				var gparts []*T
				var wparts []*refDomain
				for _, p := range parts {
					if p < 0 {
						gparts, wparts = append(gparts, nil), append(wparts, nil)
					} else {
						gparts, wparts = append(gparts, got[p]), append(wparts, want[p])
					}
				}
				got = append(got, Combine("agg", gparts...))
				want = append(want, refCombine(wparts...))
				log = append(log, fmt.Sprintf("combine%v", parts))
			} else {
				src, dst := rng.IntN(len(got)), rng.IntN(len(got))
				gerr := Resolve(got[src], got[dst])
				wfailed := refResolve(want[src], want[dst])
				log = append(log, fmt.Sprintf("resolve(%d,%d)", src, dst))
				if (gerr != nil) != wfailed {
					t.Fatalf("seed %d after %v: Resolve err %v, reference failed %v", seed, log, gerr, wfailed)
				}
			}
			check()
		}
	}
}

// Combine's later domains win on duplicate export names, however deep the
// aggregate, and an aggregate lists a duplicated name once.
func TestCombineLaterDomainWins(t *testing.T) {
	module := func(name string) *T {
		d, err := CreateFromModule(name, func(o *safe.ObjectFile) {
			o.Export("X.Who", func() string { return name })
			o.Export("X."+name, func() string { return name })
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c := module("a"), module("b"), module("c")
	for _, tc := range []struct {
		agg  *T
		want string
	}{
		{Combine("ab", a, b), "b"},
		{Combine("ba", b, a), "a"},
		{Combine("ab_c", Combine("ab", a, b), c), "c"},
		{Combine("c_ba", c, Combine("ba", b, a)), "a"},
		{Combine("a_b_a", a, b, nil, a), "a"},
	} {
		sym, ok := tc.agg.LookupExport("X.Who")
		if !ok {
			t.Fatalf("%s: X.Who not exported", tc.agg.Name())
		}
		if got := sym.Value.Interface().(func() string)(); got != tc.want {
			t.Errorf("%s: X.Who from %s, want %s", tc.agg.Name(), got, tc.want)
		}
		var who func() string
		client, _ := CreateFromModule("client", func(o *safe.ObjectFile) { o.Import("X.Who", &who) })
		if err := Resolve(tc.agg, client); err != nil {
			t.Fatal(err)
		}
		if got := who(); got != tc.want {
			t.Errorf("%s: Resolve patched X.Who from %s, want %s", tc.agg.Name(), got, tc.want)
		}
		names := tc.agg.ExportedNames()
		if n := len(slices.Compact(slices.Clone(names))); n != len(names) || slices.Index(names, "X.Who") < 0 {
			t.Errorf("%s: exported names %v", tc.agg.Name(), names)
		}
	}
}
