package mc

import (
	"math"
	"testing"

	"sramco/internal/device"
)

// FuzzConfigNormalize drives Config.normalize with arbitrary field values.
// normalize is the only gate between user-supplied yield parameters (CLI
// flags, /v1/yield bodies) and the sampler, so the contract is: never panic,
// and on success every field the sampler reads is in its valid domain.
func FuzzConfigNormalize(f *testing.F) {
	f.Add(uint8(0), 0.0, 16, int64(1), 0.0, uint8(0))      // all defaults
	f.Add(uint8(1), 0.025, 2000, int64(42), 0.8, uint8(7)) // typical explicit run
	f.Add(uint8(1), -0.01, 4, int64(0), 0.0, uint8(1))     // negative sigma
	f.Add(uint8(0), math.NaN(), 16, int64(0), 0.0, uint8(0))
	f.Add(uint8(0), math.Inf(1), 16, int64(0), 0.0, uint8(0))
	f.Add(uint8(0), 0.02, 16, int64(0), math.NaN(), uint8(0))
	f.Add(uint8(0), 0.02, 16, int64(0), -0.8, uint8(0))
	f.Add(uint8(3), 0.02, 1, int64(-1), 0.0, uint8(255)) // too few samples, stray metric bits
	f.Add(uint8(0), 0.02, -100, int64(0), 0.0, uint8(0))

	f.Fuzz(func(t *testing.T, flavor uint8, sigma float64, n int, seed int64, vdd float64, metrics uint8) {
		c := Config{
			Flavor:  device.Flavor(flavor),
			SigmaVt: sigma,
			N:       n,
			Seed:    seed,
			Vdd:     vdd,
			Metrics: Metric(metrics),
		}
		if err := c.normalize(); err != nil {
			return // rejection is fine; panicking or accepting junk is not
		}
		if c.N < 2 {
			t.Errorf("normalize accepted N = %d", c.N)
		}
		if !(c.SigmaVt > 0) || math.IsInf(c.SigmaVt, 0) {
			t.Errorf("normalize accepted σVt = %g", c.SigmaVt)
		}
		if !(c.Vdd > 0) || math.IsInf(c.Vdd, 0) {
			t.Errorf("normalize accepted Vdd = %g", c.Vdd)
		}
		if c.Metrics == 0 {
			t.Error("normalize left Metrics unset")
		}
		if c.Metrics&^AllMetrics != 0 {
			t.Errorf("normalize accepted stray metric bits %#x", int(c.Metrics))
		}
	})
}
