package vreg

import "testing"

func TestRenameTagLimit(t *testing.T) {
	tr := New(2, 64, 32)
	if !tr.TryRename() || !tr.TryRename() {
		t.Fatal("two tags should be available")
	}
	if tr.TryRename() {
		t.Fatal("tag space exhausted: rename must stall")
	}
	tr.UnRename()
	if !tr.TryRename() {
		t.Fatal("returned tag must be reusable")
	}
}

func TestBindReleasesTagTakesPhys(t *testing.T) {
	tr := New(8, 34, 32)
	tr.TryRename()
	if tr.TagsLive() != 1 || tr.PhysLive() != 32 {
		t.Fatalf("tags=%d phys=%d", tr.TagsLive(), tr.PhysLive())
	}
	if !tr.TryBind(false) {
		t.Fatal("bind should succeed")
	}
	if tr.TagsLive() != 0 || tr.PhysLive() != 33 {
		t.Fatalf("after bind: tags=%d phys=%d", tr.TagsLive(), tr.PhysLive())
	}
}

func TestBindStallsOnPhysExhaustion(t *testing.T) {
	tr := New(8, 33, 32) // one free physical register beyond initial state
	tr.TryRename()
	tr.TryRename()
	if !tr.TryBind(false) {
		t.Fatal("first bind should succeed")
	}
	if tr.TryBind(false) {
		t.Fatal("register file full: bind must defer")
	}
	if tr.TagsLive() != 1 || tr.PhysLive() != 33 {
		t.Fatalf("a deferred bind must change nothing: tags=%d phys=%d", tr.TagsLive(), tr.PhysLive())
	}
	tr.Release()
	if !tr.TryBind(false) {
		t.Fatal("released register must unblock the bind")
	}
}

func TestFusedBindConsumesNoRegister(t *testing.T) {
	tr := New(8, 33, 32)
	tr.TryRename()
	tr.TryRename()
	tr.TryBind(false) // fills the file
	if !tr.TryBind(true) {
		t.Fatal("fused bind must succeed even with a full register file")
	}
	if tr.PhysLive() != 33 {
		t.Fatal("fused bind must not consume a register")
	}
}

func TestEarlyReleaseCycle(t *testing.T) {
	// Model the paper's ephemeral-register lifecycle: produce, redefine,
	// release.
	tr := New(16, 40, 32)
	tr.TryRename()    // producer renamed
	tr.TryBind(false) // producer's value bound: 33 live
	tr.TryRename()    // redefiner renamed
	tr.TryBind(false) // redefiner's value bound: 34 live
	tr.Release()      // redefinition releases the old value: 33
	if tr.PhysLive() != 33 || tr.TagsLive() != 0 {
		t.Fatalf("phys live = %d, tags live = %d; want 33, 0", tr.PhysLive(), tr.TagsLive())
	}
}

func TestSquashBound(t *testing.T) {
	tr := New(8, 40, 32)
	tr.TryRename()
	tr.TryBind(false)
	tr.SquashBound()
	if tr.PhysLive() != 32 {
		t.Fatal("squash of a bound value must release its register")
	}
}

func TestUnderflowPanics(t *testing.T) {
	for name, fn := range map[string]func(tr *Tracker){
		"UnRename": func(tr *Tracker) { tr.UnRename() },
		"Release":  func(tr *Tracker) { tr.Release(); tr.Release() }, // one too many
		"BindTags": func(tr *Tracker) { tr.TryBind(false) },
	} {
		func() {
			tr := New(8, 33, 1)
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn(tr)
		}()
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 64, 32) },
		func() { New(8, 16, 32) }, // fewer registers than initial values
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
