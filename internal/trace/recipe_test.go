package trace

import (
	"testing"
)

// TestGeneratorsRecordRecipes checks every public generator stamps its
// trace with a recipe that regenerates an identical stream.
func TestGeneratorsRecordRecipes(t *testing.T) {
	const n = 3000
	for _, tc := range []struct {
		tr   *Trace
		want Recipe
	}{
		{Stream(n), Recipe{Kernel: KernelStream, N: n}},
		{StridedStream(n, 8), Recipe{Kernel: KernelStrided, N: n, Stride: 8}},
		{Stencil(n), Recipe{Kernel: KernelStencil, N: n}},
		{Reduction(n), Recipe{Kernel: KernelReduction, N: n}},
		{Blocked(n), Recipe{Kernel: KernelBlocked, N: n}},
		{PointerChase(n), Recipe{Kernel: KernelPointerChase, N: n}},
		{FPMix(n, 42), Recipe{Kernel: KernelFPMix, N: n, Seed: 42}},
	} {
		got, ok := tc.tr.Recipe()
		if !ok {
			t.Errorf("%s: generator recorded no recipe", tc.tr.Name())
			continue
		}
		if got != tc.want {
			t.Errorf("%s: recipe %+v, want %+v", tc.tr.Name(), got, tc.want)
			continue
		}
		re, err := got.Materialise()
		if err != nil {
			t.Errorf("%s: materialise: %v", tc.tr.Name(), err)
			continue
		}
		if re.Len() != tc.tr.Len() {
			t.Errorf("%s: rematerialised length %d, want %d", tc.tr.Name(), re.Len(), tc.tr.Len())
			continue
		}
		for i := int64(0); i < tc.tr.Len(); i++ {
			if re.At(i) != tc.tr.At(i) {
				t.Errorf("%s: rematerialised trace diverges at %d", tc.tr.Name(), i)
				break
			}
		}
	}
}

// TestCustomMixHasNoRecipe: non-default weights cannot be regenerated
// from a Recipe, so the trace must stay anonymous.
func TestCustomMixHasNoRecipe(t *testing.T) {
	w := DefaultWeights()
	w.Stream++
	if _, ok := Mix(2000, 1, w).Recipe(); ok {
		t.Error("custom mix weights produced a recipe")
	}
}

// TestRecipeValidate covers the rejection paths: unknown kernels, out
// of bounds instruction counts (recipes arrive over the wire and N is
// an allocation size), and parameters the kernel ignores — a seed on
// "stream" would generate the identical trace under a different
// fingerprint, silently defeating the content-addressed cache.
func TestRecipeValidate(t *testing.T) {
	for _, bad := range []Recipe{
		{Kernel: KernelStream, N: 0},
		{Kernel: KernelStream, N: MaxRecipeInsts + 1},
		{Kernel: "quicksort", N: 100},
		{Kernel: KernelStrided, N: 100, Stride: 0},
		{Kernel: KernelStream, N: 100, Seed: 7},
		{Kernel: KernelFPMix, N: 100, Stride: 2},
		{Kernel: KernelStrided, N: 100, Stride: 8, Seed: 7},
	} {
		if bad.Validate() == nil {
			t.Errorf("recipe %+v validated", bad)
		}
		if _, err := bad.Materialise(); err == nil {
			t.Errorf("recipe %+v materialised", bad)
		}
	}
}

// TestRecipeOnly: a recipe-only trace carries identity without the
// stream.
func TestRecipeOnly(t *testing.T) {
	r := Recipe{Kernel: KernelFPMix, N: 5000, Seed: 3}
	tr, err := StreamOnly(r)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("recipe-only trace has %d instructions", tr.Len())
	}
	if got, ok := tr.Recipe(); !ok || got != r {
		t.Errorf("recipe-only trace recipe %+v, want %+v", got, r)
	}
	if _, err := StreamOnly(Recipe{Kernel: "quicksort", N: 1}); err == nil {
		t.Error("invalid recipe produced a recipe-only trace")
	}
}

// TestRecipeStringCanonical pins the canonical fingerprint form: if this
// changes, every content-addressed cache entry is invalidated, which
// must be a deliberate decision.
func TestRecipeStringCanonical(t *testing.T) {
	r := Recipe{Kernel: KernelFPMix, N: 360000, Seed: 42}
	const want = "fpmix/n=360000/seed=42/stride=0"
	if got := r.String(); got != want {
		t.Errorf("canonical recipe string %q, want %q", got, want)
	}
}
