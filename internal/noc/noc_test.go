package noc

import (
	"testing"
	"testing/quick"
)

func TestRouteXYOrder(t *testing.T) {
	m := New(DefaultConfig())
	path := m.Route(Node{0, 0}, Node{2, 2})
	want := []Node{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}}
	if len(path) != len(want) {
		t.Fatalf("path %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
}

func TestRouteSelf(t *testing.T) {
	m := New(DefaultConfig())
	path := m.Route(Node{3, 3}, Node{3, 3})
	if len(path) != 1 {
		t.Fatalf("self route %v", path)
	}
}

func TestRouteOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(DefaultConfig()).Route(Node{0, 0}, Node{99, 0})
}

func TestHopsManhattan(t *testing.T) {
	m := New(DefaultConfig())
	if err := quick.Check(func(a, b, c, d uint8) bool {
		src := Node{int(a) % 14, int(b) % 14}
		dst := Node{int(c) % 14, int(d) % 14}
		return m.Hops(src, dst) == len(m.Route(src, dst))-1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendLatencyUncontended(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	// 64-bit packet = 2 flits over 3 hops: 3·HopCycles + (flits−1).
	r := m.Send(Node{0, 0}, Node{3, 0}, 64, 0)
	want := int64(3*cfg.HopCycles + 1)
	if r.LatencyCycles != want {
		t.Fatalf("latency %d, want %d", r.LatencyCycles, want)
	}
	if r.Hops != 3 || r.Flits != 2 {
		t.Fatalf("hops %d flits %d", r.Hops, r.Flits)
	}
}

func TestSendContentionSerializes(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Send(Node{0, 0}, Node{1, 0}, 320, 0) // 10 flits on link (0,0)→(1,0)
	b := m.Send(Node{0, 0}, Node{1, 0}, 320, 0)
	if b.ArrivalCycle <= a.ArrivalCycle {
		t.Fatalf("second packet not delayed: %d vs %d", b.ArrivalCycle, a.ArrivalCycle)
	}
}

func TestDisjointPathsNoContention(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Send(Node{0, 0}, Node{1, 0}, 64, 0)
	b := m.Send(Node{0, 1}, Node{1, 1}, 64, 0) // different row: disjoint links
	if a.LatencyCycles != b.LatencyCycles {
		t.Fatalf("disjoint packets interfered: %d vs %d", a.LatencyCycles, b.LatencyCycles)
	}
}

func TestLocalDeliveryFree(t *testing.T) {
	m := New(DefaultConfig())
	r := m.Send(Node{2, 2}, Node{2, 2}, 128, 7)
	if r.LatencyCycles != 0 || r.EnergyPJ != 0 {
		t.Fatalf("local delivery cost: %+v", r)
	}
}

func TestEnergyProportionalToBitsAndHops(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	r1 := m.Send(Node{0, 0}, Node{1, 0}, 100, 0)
	r2 := m.Send(Node{5, 5}, Node{7, 5}, 100, 0) // 2 hops
	if r2.EnergyPJ != 2*r1.EnergyPJ {
		t.Fatalf("energy not linear in hops: %v vs %v", r2.EnergyPJ, r1.EnergyPJ)
	}
	r3 := m.Send(Node{0, 5}, Node{1, 5}, 200, 0)
	if r3.EnergyPJ != 2*r1.EnergyPJ {
		t.Fatalf("energy not linear in bits: %v vs %v", r3.EnergyPJ, r1.EnergyPJ)
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := New(DefaultConfig())
	m.Send(Node{0, 0}, Node{2, 0}, 64, 0)
	m.Send(Node{0, 0}, Node{0, 3}, 32, 0)
	s := m.Stats()
	if s.Packets != 2 {
		t.Fatalf("packets %d", s.Packets)
	}
	if s.EnergyPJ <= 0 || s.MakespanCycles <= 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMeanHops(t *testing.T) {
	if MeanHops(14, 14) <= 0 {
		t.Fatal("mean hops must be positive")
	}
	if MeanHops(14, 14) != 28.0/3 {
		t.Fatalf("mean hops %v", MeanHops(14, 14))
	}
}

func TestTransferEnergyMatchesAnalytic(t *testing.T) {
	m := New(DefaultConfig())
	e := m.TransferEnergyPJ(1000)
	want := 1000 * MeanHops(14, 14) * m.Cfg.EnergyPerBitPJ
	if e != want {
		t.Fatalf("transfer energy %v, want %v", e, want)
	}
}
