package crossbar

import (
	"testing"

	"repro/internal/device"
)

// TestFaultIntrospection pins the per-pair introspection surface the
// BIST and scrub paths read: physical geometry, weak/stuck queries,
// differential pair error, and the stats reset.
func TestFaultIntrospection(t *testing.T) {
	p := device.DefaultParams()
	cb := New(4, 4, p, Config{}, nil)

	if cb.PhysRows() < 4 || cb.PhysCols() < 4 {
		t.Fatalf("physical geometry %dx%d smaller than logical 4x4", cb.PhysRows(), cb.PhysCols())
	}

	if plus, minus := cb.WeakAt(1, 1); plus || minus {
		t.Fatalf("fresh array reports weak devices: %v %v", plus, minus)
	}
	if plus, minus := cb.StuckAt(1, 1); plus || minus {
		t.Fatalf("fresh array reports stuck devices: %v %v", plus, minus)
	}
	if e := cb.PairError(1, 1); e != 0 {
		t.Fatalf("fresh pair error %d, want 0", e)
	}

	cb.SetWeak(1, 1, true, 2)
	if plus, _ := cb.WeakAt(1, 1); !plus {
		t.Fatal("SetWeak not visible through WeakAt")
	}
	if _, minus := cb.WeakAt(1, 1); minus {
		t.Fatal("weak plus device leaked onto the minus sibling")
	}
	if plus, minus := cb.StuckAt(1, 1); plus || minus {
		t.Fatal("weak device misreported as stuck")
	}

	a := Stats{MACs: 5, ActiveRowSum: 10}
	d := a.Diff(Stats{MACs: 2, ActiveRowSum: 4})
	if d.MACs != 3 || d.ActiveRowSum != 6 {
		t.Fatalf("stats diff = %+v, want MACs 3 ActiveRowSum 6", d)
	}
}
