// Package domain implements SPIN's logical protection domains (paper §3.1,
// Figure 2): kernel namespaces that contain code and exported interfaces,
// created from safe object files and stitched together at runtime by an
// in-kernel dynamic linker. Once resolved, code in separate domains shares
// resources at memory speed — a cross-domain call costs a procedure call.
//
// The package also provides the in-kernel nameserver through which modules
// export interfaces under global names and importers locate them, optionally
// gated by an exporter-supplied authorization procedure.
package domain

import (
	"errors"
	"fmt"
	"sort"

	"spin/internal/safe"
)

// ErrNotSafe is returned when a domain is created from an object file that
// fails safety verification.
var ErrNotSafe = errors.New("domain: object file is not safe")

// T is a logical protection domain — a set of program symbols that code with
// access to the domain may reference. A *T value is itself a capability: it
// is unforgeable (callers can only obtain one from Create/Combine or the
// nameserver) and holding it confers the right to link against the domain.
type T struct {
	name string

	objects []*safe.ObjectFile
	// exports maps symbol name -> exporting symbol. Aggregate domains
	// merge the export maps of their children at Combine time.
	exports map[string]safe.Symbol
	// unresolved maps symbol name -> import slots awaiting resolution.
	unresolved map[string][]safe.Symbol
}

// Name returns the domain's diagnostic name.
func (d *T) Name() string { return d.name }

// Create initializes a domain with the contents of a safe object file.
// Symbols exported by the object are exported from the domain; imported
// symbols are left unresolved (paper: Domain.Create). It returns ErrNotSafe
// (wrapped) if the object fails verification.
func Create(obj *safe.ObjectFile) (*T, error) {
	if err := obj.Verify(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotSafe, err)
	}
	d := &T{
		name:       obj.Name,
		objects:    []*safe.ObjectFile{obj},
		exports:    make(map[string]safe.Symbol),
		unresolved: make(map[string][]safe.Symbol),
	}
	for _, s := range obj.Exports() {
		d.exports[s.Name] = s
	}
	for _, s := range obj.Imports() {
		d.unresolved[s.Name] = append(d.unresolved[s.Name], s)
	}
	return d, nil
}

// CreateFromModule creates a domain containing interfaces defined by the
// calling module, allowing modules to name and export themselves at runtime
// (paper: Domain.CreateFromModule). The builder function receives a fresh
// object file to populate; the object is compiler-signed on its behalf,
// modelling that in-tree modules were compiled by the type-safe compiler.
func CreateFromModule(name string, build func(*safe.ObjectFile)) (*T, error) {
	obj := safe.NewObjectFile(name)
	build(obj)
	obj.Sign(safe.Compiler)
	return Create(obj)
}

// Resolve resolves any undefined symbols in the target domain against
// symbols exported from the source (paper: Domain.Resolve). Text and data
// symbols are patched in place; resolution does not export additional
// symbols from the target. Type-conflicting resolutions fail with
// *safe.TypeConflictError and leave the slot untouched.
func Resolve(source, target *T) error {
	if source == nil || target == nil {
		return errors.New("domain: Resolve on nil domain")
	}
	var firstErr error
	for name, slots := range target.unresolved {
		exp, ok := source.exports[name]
		if !ok {
			continue
		}
		var remaining []safe.Symbol
		for _, slot := range slots {
			if err := safe.Patch(slot, exp); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				remaining = append(remaining, slot)
				continue
			}
		}
		if len(remaining) == 0 {
			delete(target.unresolved, name)
		} else {
			target.unresolved[name] = remaining
		}
	}
	return firstErr
}

// CrossLink performs the common idiom of a pair of Resolve operations so
// that two domains satisfy each other's imports.
func CrossLink(a, b *T) error {
	if err := Resolve(a, b); err != nil {
		return err
	}
	return Resolve(b, a)
}

// Combine creates a new aggregate domain that exports the interfaces of the
// given domains (paper: Domain.Combine). Later domains win on duplicate
// export names, and unresolved imports of all children remain visible in the
// aggregate so that a single Resolve against it can finish linking.
func Combine(name string, ds ...*T) *T {
	agg := &T{
		name:       name,
		exports:    make(map[string]safe.Symbol),
		unresolved: make(map[string][]safe.Symbol),
	}
	for _, d := range ds {
		if d == nil {
			continue
		}
		agg.objects = append(agg.objects, d.objects...)
		for n, s := range d.exports {
			agg.exports[n] = s
		}
		for n, slots := range d.unresolved {
			agg.unresolved[n] = append(agg.unresolved[n], slots...)
		}
	}
	return agg
}

// Unresolved returns the names of symbols still awaiting resolution, sorted.
func (d *T) Unresolved() []string {
	names := make([]string, 0, len(d.unresolved))
	for n, slots := range d.unresolved {
		if len(slots) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// FullyResolved reports whether every import in the domain has been patched.
func (d *T) FullyResolved() bool { return len(d.Unresolved()) == 0 }

// ExportedNames returns the names this domain exports, sorted.
func (d *T) ExportedNames() []string {
	names := make([]string, 0, len(d.exports))
	for n := range d.exports {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LookupExport returns the named exported symbol, if present.
func (d *T) LookupExport(name string) (safe.Symbol, bool) {
	s, ok := d.exports[name]
	return s, ok
}

// Objects returns the object files backing this domain.
func (d *T) Objects() []*safe.ObjectFile {
	return append([]*safe.ObjectFile(nil), d.objects...)
}
