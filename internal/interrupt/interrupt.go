// Package interrupt models the interrupt-virtualization substrate: a virtual
// local APIC with a pending-vector queue, an interrupt descriptor table, and
// the RFLAGS.IF gating that decides when a pending interrupt may be injected
// into a guest.
//
// The simulator uses it to reproduce the paper's §3.3.3: under KVM-style
// nesting, delivering an external interrupt to an L2 guest costs multiple L0
// exits, whereas PVM needs L0 only for the initial injection into L1 and
// handles the rest through its customized IDT mapped into the L2 address
// space.
package interrupt

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arch"
)

// Vector identifiers used by the simulator.
const (
	VectorTimer     uint8 = 32
	VectorVirtioBlk uint8 = 40
	VectorVirtioNet uint8 = 41
	VectorIPI       uint8 = 48
	VectorPageFault uint8 = 14
	VectorGP        uint8 = 13
	VectorUD        uint8 = 6
)

// IDT is an interrupt descriptor table: vector → handler identity. PVM maps
// a *customized* IDT at the address the guest's IDTR points to, so the
// switcher captures every interrupt even mid-world-switch (§3.3.3); the
// Custom flag records which variant is installed.
type IDT struct {
	Base    arch.VA
	Custom  bool // PVM's switcher-owned IDT vs the guest's own
	handler [256]string
}

// NewIDT returns an IDT at base; custom marks it as PVM's switcher IDT.
func NewIDT(base arch.VA, custom bool) *IDT {
	idt := &IDT{Base: base, Custom: custom}
	for v := range idt.handler {
		idt.handler[v] = "guest"
	}
	if custom {
		for v := range idt.handler {
			idt.handler[v] = "switcher"
		}
	}
	return idt
}

// SetHandler overrides one vector's handler identity.
func (i *IDT) SetHandler(vector uint8, h string) { i.handler[vector] = h }

// Handler returns the handler identity for a vector.
func (i *IDT) Handler(vector uint8) string { return i.handler[vector] }

// APIC is a virtual local APIC: a FIFO of pending vectors plus injection
// statistics.
type APIC struct {
	pending []uint8

	Raised   int64
	Injected int64
	Deferred int64 // injection attempts blocked by IF=0
}

// NewAPIC returns an empty APIC.
func NewAPIC() *APIC { return &APIC{} }

// Raise queues a vector.
func (a *APIC) Raise(vector uint8) {
	a.pending = append(a.pending, vector)
	a.Raised++
}

// Pending reports whether any vector is queued.
func (a *APIC) Pending() bool { return len(a.pending) > 0 }

// Inject pops the next vector if interrupts are enabled (ifFlag). It returns
// the vector and whether injection happened.
func (a *APIC) Inject(ifFlag bool) (uint8, bool) {
	if len(a.pending) == 0 {
		return 0, false
	}
	if !ifFlag {
		a.Deferred++
		return 0, false
	}
	v := a.pending[0]
	a.pending = a.pending[1:]
	a.Injected++
	return v, true
}

// SharedIF is the 8-byte word PVM shares between an L2 guest and the L1
// hypervisor to virtualize RFLAGS.IF: the guest toggles it without exiting,
// and the hypervisor reads it directly to decide whether a virtual interrupt
// can be injected.
//
// The word and its counters are atomic: the vCPUs of one guest share it
// (one toggling IF from guest context while another injects an I/O
// completion) without any virtual lock between them. Nothing the simulation
// computes reads the counters, so their update order is free.
type SharedIF struct {
	enabled atomic.Bool

	GuestToggles atomic.Int64
	HostReads    atomic.Int64
}

// Set updates the flag from guest context (no exit).
func (s *SharedIF) Set(enabled bool) {
	s.enabled.Store(enabled)
	s.GuestToggles.Add(1)
}

// Get reads the flag from hypervisor context (no exit).
func (s *SharedIF) Get() bool {
	s.HostReads.Add(1)
	return s.enabled.Load()
}

func (s *SharedIF) String() string {
	return fmt.Sprintf("IF=%v (guest toggles %d, host reads %d)", s.enabled.Load(), s.GuestToggles.Load(), s.HostReads.Load())
}
