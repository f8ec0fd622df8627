// Package safe models SPIN's notion of a *safe object file*: code that may
// be dynamically linked into the kernel because either (a) the Modula-3
// compiler signed it, certifying type safety, or (b) the kernel explicitly
// asserts its safety (the paper does this for vendor C device drivers).
//
// In this Go reproduction, an ObjectFile carries typed symbol tables —
// exported symbols bind names to values, imported symbols are typed slots to
// be patched by the linker — plus a signature. The linker (package domain)
// refuses to create protection domains from unsigned, unasserted objects and
// refuses to resolve an import against an export of a different type. Those
// are exactly the checks the Modula-3 toolchain provides at the same binding
// points.
package safe

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// Signer identifies who vouches for an object file's safety.
type Signer uint8

const (
	// Unsigned objects are rejected by the in-kernel linker.
	Unsigned Signer = iota
	// Compiler marks objects produced by the type-safe compiler; this is
	// the preferred provenance.
	Compiler
	// KernelAssertion marks objects (e.g. vendor C drivers) whose safety
	// the kernel asserts rather than verifies. The paper notes these "tend
	// to be the source of more than their fair share of bugs".
	KernelAssertion
)

func (s Signer) String() string {
	switch s {
	case Compiler:
		return "compiler-signed"
	case KernelAssertion:
		return "kernel-asserted"
	default:
		return "unsigned"
	}
}

// Symbol is one entry in an object file's symbol table. Its type descriptor
// is captured from the Go value, standing in for the Modula-3 compiler's
// type information.
type Symbol struct {
	// Name is the fully qualified symbol name, conventionally
	// "Interface.Procedure" (e.g. "Console.Write").
	Name string
	// Value holds the exported item (usually a func value) for exports;
	// for imports it holds a pointer to the slot the linker patches.
	Value reflect.Value
	// Type is the declared type of the symbol. For imports it is the
	// slot's element type.
	Type reflect.Type
}

// ObjectFile is a unit of dynamically linkable code: the analogue of a
// Modula-3 compilation unit in COFF form.
type ObjectFile struct {
	// Name identifies the object file (module name).
	Name string
	// Signer records the provenance of this object.
	Signer Signer

	// exports and imports are each sorted by name, one symbol a name.
	exports []Symbol
	imports []Symbol
	sig     [32]byte
	sealed  bool
}

// NewObjectFile returns an empty, unsigned object file named name.
func NewObjectFile(name string) *ObjectFile {
	return &ObjectFile{Name: name}
}

// Export adds an exported symbol binding name to value. It panics if called
// after sealing, mirroring the immutability of a compiled object.
func (o *ObjectFile) Export(name string, value any) *ObjectFile {
	o.mustBeOpen()
	v := reflect.ValueOf(value)
	if !v.IsValid() {
		panic(fmt.Sprintf("safe: export %s: nil value", name))
	}
	o.exports = insert(o.exports, Symbol{Name: name, Value: v, Type: v.Type()})
	return o
}

// Import declares an unresolved symbol: slot must be a non-nil pointer; the
// linker will store the resolving export into *slot. The import's type is
// the pointer's element type.
func (o *ObjectFile) Import(name string, slot any) *ObjectFile {
	o.mustBeOpen()
	v := reflect.ValueOf(slot)
	if !v.IsValid() || v.Kind() != reflect.Pointer || v.IsNil() {
		panic(fmt.Sprintf("safe: import %s: slot must be a non-nil pointer", name))
	}
	o.imports = insert(o.imports, Symbol{Name: name, Value: v, Type: v.Type().Elem()})
	return o
}

func (o *ObjectFile) mustBeOpen() {
	if o.sealed {
		panic(fmt.Sprintf("safe: object %s is sealed", o.Name))
	}
}

// Sign seals the object and records its provenance, computing the signature
// over the symbol tables. A sealed object's tables cannot change, so the
// signature remains valid for the object's lifetime.
func (o *ObjectFile) Sign(by Signer) *ObjectFile {
	o.mustBeOpen()
	o.Signer = by
	o.sig = o.digest()
	o.sealed = true
	return o
}

// Sealed reports whether the object has been signed and sealed.
func (o *ObjectFile) Sealed() bool { return o.sealed }

// digest hashes the object's identity: its name, then for each symbol,
// exports before imports and each in name order, "E " or "I ", its name,
// its type string and its kind as 8 little-endian bytes. The bytes are
// gathered on the stack, so an object of up to about twenty symbols signs
// without allocating.
func (o *ObjectFile) digest() [32]byte {
	var buf [2048]byte
	b := append(buf[:0], o.Name...)
	b = appendSymbols(b, "E ", o.exports)
	b = appendSymbols(b, "I ", o.imports)
	return sha256.Sum256(b)
}

func appendSymbols(b []byte, tag string, table []Symbol) []byte {
	for _, sym := range table {
		b = append(b, tag...)
		b = append(b, sym.Name...)
		b = append(b, sym.Type.String()...)
		b = binary.LittleEndian.AppendUint64(b, uint64(sym.Type.Kind()))
	}
	return b
}

// Verify re-derives the signature and checks provenance. The in-kernel
// linker calls this before admitting an object into a protection domain.
func (o *ObjectFile) Verify() error {
	if !o.sealed {
		return fmt.Errorf("safe: object %s: not sealed", o.Name)
	}
	if o.Signer == Unsigned {
		return fmt.Errorf("safe: object %s: unsigned", o.Name)
	}
	if o.digest() != o.sig {
		return fmt.Errorf("safe: object %s: signature mismatch (tampered symbol table)", o.Name)
	}
	return nil
}

// Exports returns the exported symbols in sorted name order.
func (o *ObjectFile) Exports() []Symbol { return slices.Clone(o.exports) }

// Imports returns the imported (possibly unresolved) symbols in sorted name
// order.
func (o *ObjectFile) Imports() []Symbol { return slices.Clone(o.imports) }

// LookupExport returns the named export.
func (o *ObjectFile) LookupExport(name string) (Symbol, bool) { return lookup(o.exports, name) }

// LookupImport returns the named import slot.
func (o *ObjectFile) LookupImport(name string) (Symbol, bool) { return lookup(o.imports, name) }

func byName(s Symbol, name string) int { return strings.Compare(s.Name, name) }

// insert puts s into the name-sorted table, in place of any symbol of the
// same name.
func insert(table []Symbol, s Symbol) []Symbol {
	i, found := slices.BinarySearchFunc(table, s.Name, byName)
	if found {
		table[i] = s
		return table
	}
	return slices.Insert(table, i, s)
}

func lookup(table []Symbol, name string) (Symbol, bool) {
	if i, found := slices.BinarySearchFunc(table, name, byName); found {
		return table[i], true
	}
	return Symbol{}, false
}

// Patch stores export into the import slot sym, enforcing type safety: the
// export's type must be assignable to the slot's element type. This is the
// single point at which cross-domain references come into existence, so the
// check here is what makes dynamic linking safe.
func Patch(imp Symbol, export Symbol) error {
	if !export.Type.AssignableTo(imp.Type) {
		return &TypeConflictError{Symbol: imp.Name, Want: imp.Type, Got: export.Type}
	}
	imp.Value.Elem().Set(export.Value)
	return nil
}

// Resolved reports whether the import slot has been patched (non-zero).
func Resolved(imp Symbol) bool {
	return !imp.Value.Elem().IsZero()
}

// TypeConflictError reports an attempt to resolve an import against an
// export of an incompatible type — the Console.T redefinition scenario from
// Section 3.1 of the paper.
type TypeConflictError struct {
	Symbol string
	Want   reflect.Type
	Got    reflect.Type
}

func (e *TypeConflictError) Error() string {
	return fmt.Sprintf("safe: type conflict on %s: import wants %v, export has %v",
		e.Symbol, e.Want, e.Got)
}
