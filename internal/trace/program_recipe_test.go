package trace

import (
	"encoding/json"
	"testing"
)

// TestProgramRecipeValidate covers the program extension's rejection
// paths. Program recipes carry no N (lengths come from execution), no
// stride, and must name a registered program with an in-range input;
// symmetrically, program parameters on a synthetic kernel are rejected
// so no synthetic recipe can alias a program one.
func TestProgramRecipeValidate(t *testing.T) {
	for _, bad := range []Recipe{
		{Kernel: KernelProgram, Program: "quicksort", Input: 100},
		{Kernel: KernelProgram, Program: "isort", Input: 100, N: 5000},
		{Kernel: KernelProgram, Program: "isort", Input: 100, Stride: 8},
		{Kernel: KernelProgram, Program: "isort", Input: 0},
		{Kernel: KernelProgram, Program: "isort", Input: 1 << 30},
		{Kernel: KernelProgram, Input: 100},
		{Kernel: KernelStream, N: 100, Program: "isort"},
		{Kernel: KernelStream, N: 100, Input: 64},
	} {
		if bad.Validate() == nil {
			t.Errorf("recipe %+v validated", bad)
		}
		if _, err := bad.Materialise(); err == nil {
			t.Errorf("recipe %+v materialised", bad)
		}
	}

	good := Recipe{Kernel: KernelProgram, Program: "isort", Input: 64, Seed: 7}
	if err := good.Validate(); err != nil {
		t.Errorf("recipe %+v rejected: %v", good, err)
	}
}

// TestProgramRecipeMaterialiseDeterministic: the fleet's caching story
// rests on program materialisation being a pure function of the recipe.
// Two materialisations must agree instruction for instruction, carry the
// recipe back, expose a static image, and pass stream validation.
func TestProgramRecipeMaterialiseDeterministic(t *testing.T) {
	r := Recipe{Kernel: KernelProgram, Program: "hashjoin", Input: 500, Seed: 42}
	a, err := r.Materialise()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Materialise()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || a.Len() != b.Len() {
		t.Fatalf("lengths %d vs %d", a.Len(), b.Len())
	}
	for i := int64(0); i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("materialisations diverge at %d: %+v vs %+v", i, a.At(i), b.At(i))
		}
	}
	if got, ok := a.Recipe(); !ok || got != r {
		t.Fatalf("materialised trace recipe %+v, want %+v", got, r)
	}
	if a.Name() != "hashjoin" {
		t.Errorf("trace name %q, want the program name", a.Name())
	}
	if a.Code() == nil || a.Code().Len() == 0 {
		t.Fatal("program trace exposes no static code image")
	}
}

// TestProgramRecipeCanonicalString pins the program wire and fingerprint
// forms. The canonical string is hashed into sim fingerprints — changing
// it invalidates every cached program result — and the JSON form is what
// service clients ship; both must stay stable.
func TestProgramRecipeCanonicalString(t *testing.T) {
	r := Recipe{Kernel: KernelProgram, Program: "chase", Input: 4000, Seed: 42}
	const want = "program/chase/input=4000/seed=42"
	if got := r.String(); got != want {
		t.Errorf("canonical recipe string %q, want %q", got, want)
	}

	wire, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const wantJSON = `{"kernel":"program","seed":42,"program":"chase","input":4000}`
	if string(wire) != wantJSON {
		t.Errorf("wire form %s, want %s", wire, wantJSON)
	}
	var back Recipe
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("wire round trip %+v, want %+v", back, r)
	}

	// Synthetic recipes must not grow new JSON fields from the program
	// extension: their wire form (and thus every existing cache key
	// derived from it) is unchanged.
	syn, err := json.Marshal(Recipe{Kernel: KernelFPMix, N: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if string(syn) != `{"kernel":"fpmix","n":3000,"seed":7}` {
		t.Errorf("synthetic wire form drifted: %s", syn)
	}
}

// TestProgramRecipeOnly: program recipes ship by identity too.
func TestProgramRecipeOnly(t *testing.T) {
	r := Recipe{Kernel: KernelProgram, Program: "memcpy", Input: 4096, Seed: 1}
	tr, err := StreamOnly(r)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("recipe-only trace has %d instructions", tr.Len())
	}
	if tr.Name() != "memcpy" {
		t.Errorf("recipe-only trace name %q, want the program name", tr.Name())
	}
	if got, ok := tr.Recipe(); !ok || got != r {
		t.Errorf("recipe-only trace recipe %+v, want %+v", got, r)
	}
	if r.WorkloadName() != "memcpy" {
		t.Errorf("WorkloadName %q", r.WorkloadName())
	}
	if (Recipe{Kernel: KernelFPMix, N: 10, Seed: 3}).WorkloadName() != "fpmix" {
		t.Error("synthetic WorkloadName should be the kernel")
	}
}
