package cell

import (
	"testing"

	"sramco/internal/device"
)

// BenchmarkReadSNM measures one read-SNM extraction (two VTC sweeps plus
// the largest-square search) — the unit of work behind Figs. 2-3 and the
// Monte Carlo yield engine.
func BenchmarkReadSNM(b *testing.B) {
	c := New(device.HVT)
	bias := NominalRead(device.Vdd)
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadSNM(bias); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeakagePower measures one standby-leakage operating point.
func BenchmarkLeakagePower(b *testing.B) {
	c := New(device.HVT)
	for i := 0; i < b.N; i++ {
		if _, err := c.LeakagePower(device.Vdd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteMargin measures one write-margin extraction (bisection of
// dynamic flip probes).
func BenchmarkWriteMargin(b *testing.B) {
	c := New(device.HVT)
	bias := NominalWrite(device.Vdd)
	for i := 0; i < b.N; i++ {
		if _, err := c.WriteMargin(bias); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteDelay measures one write-delay measurement at nominal bias:
// a transient that stops right after the Q/QB crossing. It is one point of
// the framework's write-delay LUT, 12 of which make up most of set-up.
func BenchmarkWriteDelay(b *testing.B) {
	c := New(device.HVT)
	bias := NominalWrite(device.Vdd)
	for i := 0; i < b.N; i++ {
		if _, err := c.WriteDelay(bias); err != nil {
			b.Fatal(err)
		}
	}
}
