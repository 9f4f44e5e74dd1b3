package amac

import (
	"amac/internal/arena"
	"amac/internal/memsim"
)

// Hardware describes a simulated socket: cores, cache hierarchy, MSHRs, TLB,
// off-chip queue and clock. XeonX5670 is the paper's primary machine; check
// a modified or custom configuration with NewSystem.
type Hardware = memsim.Config

// XeonX5670 returns the model of the Intel Xeon x5670 socket used in the
// paper's primary evaluation.
func XeonX5670() Hardware { return memsim.XeonX5670() }

// System is one simulated socket: a shared last-level cache and off-chip
// queue from which representative cores are created.
type System = memsim.System

// NewSystem validates the hardware description and builds a socket model.
func NewSystem(h Hardware) (*System, error) { return memsim.NewSystem(h) }

// MustSystem is NewSystem for known-good configurations; it panics on error.
func MustSystem(h Hardware) *System { return memsim.MustSystem(h) }

// Core is one simulated hardware thread. Operators and engines charge their
// instructions, loads, stores and prefetches against it; Stats exposes the
// counters a hardware PMU would.
type Core = memsim.Core

// Stats holds the performance counters of a Core.
type Stats = memsim.Stats

// Arena is the simulated address space all data structures live in.
type Arena = arena.Arena

// NewArena returns an empty simulated address space.
func NewArena() *Arena { return arena.New() }
