package interrupt

import "testing"

func TestAPICQueueAndIFGating(t *testing.T) {
	a := NewAPIC()
	if a.Pending() {
		t.Error("fresh APIC has pending interrupts")
	}
	a.Raise(VectorTimer)
	a.Raise(VectorVirtioBlk)
	if !a.Pending() {
		t.Error("raised vectors not pending")
	}
	// IF=0: injection deferred.
	if _, ok := a.Inject(false); ok {
		t.Error("injected with interrupts disabled")
	}
	if a.Deferred != 1 {
		t.Errorf("deferred = %d, want 1", a.Deferred)
	}
	// IF=1: FIFO order.
	v, ok := a.Inject(true)
	if !ok || v != VectorTimer {
		t.Errorf("first injection = (%d, %v), want timer", v, ok)
	}
	v, _ = a.Inject(true)
	if v != VectorVirtioBlk {
		t.Errorf("second injection = %d, want virtio-blk", v)
	}
	if _, ok := a.Inject(true); ok {
		t.Error("injection from empty queue")
	}
	if a.Raised != 2 || a.Injected != 2 {
		t.Errorf("raised/injected = %d/%d, want 2/2", a.Raised, a.Injected)
	}
}

func TestCustomIDTCapturesEverything(t *testing.T) {
	own := NewIDT(0x1000, false)
	if own.Handler(14) != "guest" {
		t.Error("guest IDT should point at guest handlers")
	}
	custom := NewIDT(0x2000, true)
	for v := 0; v < 256; v++ {
		if custom.Handler(uint8(v)) != "switcher" {
			t.Fatalf("vector %d not captured by switcher", v)
		}
	}
	custom.SetHandler(32, "timer-fast")
	if custom.Handler(32) != "timer-fast" {
		t.Error("SetHandler did not take")
	}
}

func TestSharedIFNoExitSemantics(t *testing.T) {
	var s SharedIF
	s.Set(true)
	if !s.Get() {
		t.Error("IF lost")
	}
	s.Set(false)
	if s.Get() {
		t.Error("IF stuck")
	}
	if s.GuestToggles.Load() != 2 || s.HostReads.Load() != 2 {
		t.Errorf("toggles/reads = %d/%d, want 2/2", s.GuestToggles.Load(), s.HostReads.Load())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}
