package safe

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

func signedFixture() *ObjectFile {
	var inc func(int) int
	var v *int
	return NewObjectFile("golden").
		Export("M.Double", func(x int) int { return 2 * x }).
		Export("A.Write", func(string) (int, error) { return 0, nil }).
		Import("Lib.Inc", &inc).
		Import("D.V", &v).
		Import("M.Double", &inc).
		Sign(Compiler)
}

// The signature is SHA-256 over the object's name and, exports before
// imports and each in name order, "E " or "I ", the symbol's name, its type
// string and its kind as 8 little-endian bytes. These values pin that
// layout: a digest that covered less, or more, would change them.
func TestSignatureLayout(t *testing.T) {
	for _, c := range []struct {
		obj  *ObjectFile
		want string
	}{
		{signedFixture(), "c10e05941be5c95587a73930b2372a1ee16b867704a6cfbd9fe30419b76c67a7"},
		{NewObjectFile("empty").Sign(Compiler), "2e1cfa82b035c26cbbbdae632cea070514eb8b773f616aaeaf668e2f0be8f10d"},
	} {
		if got := hex.EncodeToString(c.obj.sig[:]); got != c.want {
			t.Errorf("%s: signature %s, want %s", c.obj.Name, got, c.want)
		}
	}
}

// A sealed object's tables cannot change through its methods, but the
// linker re-derives the signature at Create in case they changed some other
// way: every kind of edit after Sign must fail Verify.
func TestVerifyDetectsTampering(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(o *ObjectFile)
	}{
		{"rename object", func(o *ObjectFile) { o.Name = "forged" }},
		{"rename export", func(o *ObjectFile) { o.exports[0].Name = "A.Read" }},
		{"retype export", func(o *ObjectFile) { o.exports[1].Type = reflect.TypeOf(func(int) int64 { return 0 }) }},
		{"drop export", func(o *ObjectFile) { o.exports = o.exports[1:] }},
		{"add export", func(o *ObjectFile) {
			o.exports = insert(o.exports, Symbol{Name: "Z.F", Type: reflect.TypeOf(func() {})})
		}},
		{"rename import", func(o *ObjectFile) { o.imports[2].Name = "M.Triple" }},
		{"retype import", func(o *ObjectFile) { o.imports[0].Type = reflect.TypeOf((*int64)(nil)) }},
		{"drop import", func(o *ObjectFile) { o.imports = o.imports[:2] }},
		{"import becomes export", func(o *ObjectFile) {
			o.exports = insert(o.exports, o.imports[1])
			o.imports = append(o.imports[:1], o.imports[2:]...)
		}},
	} {
		o := signedFixture()
		if err := o.Verify(); err != nil {
			t.Fatalf("%s: untouched object fails Verify: %v", c.name, err)
		}
		c.edit(o)
		if err := o.Verify(); err == nil {
			t.Errorf("%s: tampered object verified", c.name)
		}
	}
}

// An export and an import of the same name and type are different symbols,
// so the objects holding them must sign differently.
func TestSignatureSeparatesExportsFromImports(t *testing.T) {
	var slot func() int
	exp := NewObjectFile("m").Export("M.F", func() int { return 0 }).Sign(Compiler)
	imp := NewObjectFile("m").Import("M.F", &slot).Sign(Compiler)
	if exp.sig == imp.sig {
		t.Error("an export and an import of the same name and type signed alike")
	}
}

// Signing runs once per object at build time and Verify again at every
// Create, once per domain a machine boots: neither allocates for an object
// of up to 16 symbols.
func TestSignVerifyAllocFree(t *testing.T) {
	o := NewObjectFile("Sixteen.Symbols.Module")
	for i := range 8 {
		o.Export(fmt.Sprintf("Translation.ExamineMapping%d", i), func(int64, reflect.Type) (*ObjectFile, error) { return nil, nil })
		o.Import(fmt.Sprintf("PhysAddr.Allocate%d", i), new(func(int64, reflect.Kind) (*ObjectFile, error)))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		o.sealed = false
		if err := o.Sign(Compiler).Verify(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Sign + Verify of 16 symbols: %.1f allocations, want 0", allocs)
	}
}
