package array

import (
	"math/rand"
	"testing"

	"sramco/internal/wire"
)

func benchEvaluator(b *testing.B) *Evaluator {
	b.Helper()
	ev, err := NewEvaluator(testTech(b), Activity{Alpha: 0.5, Beta: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	g := wire.Geometry{NR: 256, NC: 512, W: 64, Npre: 1, Nwr: 1}
	if err := ev.Prepare(g, 0.55, -0.1, 0.55); err != nil {
		b.Fatal(err)
	}
	return ev
}

// BenchmarkEvalSweep measures the struct-of-arrays row kernel on a full
// 20-point N_wr row — the exact shape the branch-and-bound searcher runs.
func BenchmarkEvalSweep(b *testing.B) {
	ev := benchEvaluator(b)
	var sweep SweepBlock
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvalSweep(1+i%50, 1, 20, &sweep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*20), "ns/point")
}

// BenchmarkBoundRect measures the per-rectangle cost of the lower bound the
// searcher pays before deciding to prune or sweep.
func BenchmarkBoundRect(b *testing.B) {
	ev := benchEvaluator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.BoundRect(1, 50, 1, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUnits draws a seeded set of distinct units, all plain or all hybrid
// (two alternate flavors), and an unprepared Evaluator to cycle them on.
func benchUnits(b *testing.B, hybrid bool) (*Evaluator, []probeUnit) {
	b.Helper()
	ev, err := NewEvaluator(testTech(b), Activity{Alpha: 0.5, Beta: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20261017))
	alts := []FlavorTerms{altTerms(), lvtLikeAlt()}
	var us []probeUnit
	for len(us) < 128 {
		u := drawUnit(rng, alts)
		if !hybrid {
			u.h = Hybrid{}
		} else if u.h.Groups < 2 {
			continue
		}
		if err := u.prepare(ev); err != nil {
			b.Fatal(err)
		}
		us = append(us, u)
	}
	return ev, us
}

// BenchmarkPrepare measures the per-unit cost of Prepare on one reused
// Evaluator cycling over distinct units — every call switches chunks, and
// the device-model terms come from the memo, as they do for a search worker.
func BenchmarkPrepare(b *testing.B) {
	ev, us := benchUnits(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := us[i%len(us)].prepare(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareHybrid is BenchmarkPrepare for per-row-group units (2, 4
// or 8 groups, random masks): the bound pass of a hybrid search runs this
// once per unit.
func BenchmarkPrepareHybrid(b *testing.B) {
	ev, us := benchUnits(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := us[i%len(us)].prepare(ev); err != nil {
			b.Fatal(err)
		}
	}
}
