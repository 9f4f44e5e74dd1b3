package memsim

import "testing"

func TestFabricUncontended(t *testing.T) {
	f := NewFabric(32)
	if got := f.OffchipLatency(200, 10); got != 200 {
		t.Fatalf("uncontended latency = %d, want 200", got)
	}
	if f.extraCycles != 0 {
		t.Fatal("no extra cycles expected without contention")
	}
}

func TestFabricContention(t *testing.T) {
	f := NewFabric(32)
	f.SetActiveThreads(6)
	// 6 threads x 10 outstanding = 60 > 32: latency inflates by 60/32.
	got := f.OffchipLatency(200, 10)
	want := uint64(200 * 60 / 32)
	if got != want {
		t.Fatalf("contended latency = %d, want %d", got, want)
	}
	if f.extraCycles != want-200 {
		t.Fatalf("extraCycles = %d, want %d", f.extraCycles, want-200)
	}
}

func TestFabricTwoSocketSpreadRelievesContention(t *testing.T) {
	// The paper's "2+2" experiment: four threads over two sockets behave
	// like two threads on one socket.
	oneSocket := NewFabric(32)
	oneSocket.SetActiveThreads(4)
	twoSocket := NewFabric(32)
	twoSocket.SetActiveThreads(2)

	l4 := oneSocket.OffchipLatency(200, 10)
	l22 := twoSocket.OffchipLatency(200, 10)
	if l22 > l4 {
		t.Fatalf("2 threads/socket latency %d should not exceed 4 threads/socket latency %d", l22, l4)
	}
}

func TestFabricDefensiveInputs(t *testing.T) {
	f := NewFabric(8)
	f.SetActiveThreads(0) // clamps to 1
	if f.ActiveThreads() != 1 {
		t.Fatalf("ActiveThreads = %d, want 1", f.ActiveThreads())
	}
	if got := f.OffchipLatency(100, 0); got != 100 {
		t.Fatalf("latency with zero outstanding = %d, want 100", got)
	}
	if f.queueEntries != 8 {
		t.Fatalf("queueEntries = %d", f.queueEntries)
	}
	f.Reset()
	if f.extraCycles != 0 {
		t.Fatal("Reset did not clear extra cycles")
	}
}
