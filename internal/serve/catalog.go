package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"sramco"
	"sramco/internal/catalog"
	"sramco/internal/obs"
)

var (
	mCatalogBuilds = obs.NewCounter("serve.catalog.builds")
	gCatalogSize   = obs.NewGauge("serve.catalog.entries")
	hCatalogBuild  = obs.NewHistogram("serve.catalog.build_duration")
)

// CatalogGrid enumerates the slice of the request space a catalog
// precomputes: the cross product of capacities, flavors, methods and
// objectives for /v1/optimize, plus (optionally) the /v1/pareto front of
// each (capacity, flavor, method) cell under the default objective.
type CatalogGrid struct {
	CapacitiesBytes []int
	Flavors         []string
	Methods         []string
	Objectives      []string
	Pareto          bool
	// Groups lists additional hybrid group counts to precompute per
	// objective cell (the single-flavor search, groups=0, is always built).
	Groups []int
}

// DefaultCatalogGrid covers the paper's standard design space: 1–16 KB
// arrays for both flavors, both assist methods and every objective — 100
// optimize entries plus 20 Pareto fronts.
func DefaultCatalogGrid() CatalogGrid {
	return CatalogGrid{
		CapacitiesBytes: []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10},
		Flavors:         []string{"lvt", "hvt"},
		Methods:         []string{"m1", "m2"},
		Objectives:      []string{"edp", "delay", "energy", "area", "padp"},
		Pareto:          true,
	}
}

// SetCatalog atomically installs cat as the precomputed lookup tier; nil
// clears it. Requests racing the swap see either the old or the new catalog
// — both are complete, so there is no torn state. The caller is responsible
// for only installing catalogs whose fingerprint matches the framework's.
func (s *Server) SetCatalog(cat *catalog.Catalog) {
	if cat != nil {
		gCatalogSize.Set(float64(cat.Len()))
	} else {
		gCatalogSize.Set(0)
	}
	s.cat.Store(cat)
}

// Catalog returns the currently installed catalog, or nil.
func (s *Server) Catalog() *catalog.Catalog { return s.cat.Load() }

// BuildCatalog precomputes the grid against the server's framework and
// returns the resulting catalog, fingerprinted with the framework's current
// technology. Every entry is produced by the same fill path a live cache
// miss would take and stored under the same canonical key, which makes
// catalog hits bit-identical to live fills by construction. Infeasible grid
// cells are skipped (the serving layer caches their 422s on demand); any
// other failure aborts the build. The build does not touch the server's
// request metrics or result cache.
func (s *Server) BuildCatalog(ctx context.Context, grid CatalogGrid) (*catalog.Catalog, error) {
	start := time.Now()
	mCatalogBuilds.Inc()
	sp := obs.StartSpanCtx(ctx, "serve.catalog.build")
	defer func() { sp.End(); hCatalogBuild.Observe(time.Since(start)) }()

	b := catalog.NewBuilder(s.fw.Fingerprint())
	for _, c := range grid.cells() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if aerr := c.req.normalize(); aerr != nil {
			return nil, fmt.Errorf("serve: catalog grid cell invalid: %s", aerr.Message)
		}
		key := c.key()
		v, err := ops[c.op].fill(s, ctx, c.req)
		if errors.Is(err, sramco.ErrInfeasible) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("serve: catalog fill %s: %w", key, err)
		}
		body, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("serve: catalog entry %s: %w", key, err)
		}
		if err := b.Add(key, body); err != nil {
			return nil, err
		}
	}
	cat, err := b.Build()
	if err != nil {
		return nil, err
	}
	sp.Int("entries", int64(cat.Len()))
	return cat, nil
}

// cells enumerates the grid's requests in build order: per capacity, flavor
// and method, every objective × group count for /v1/optimize, then the
// /v1/pareto front under the default objective.
func (g CatalogGrid) cells() []call {
	var cells []call
	for _, capBytes := range g.CapacitiesBytes {
		for _, flavor := range g.Flavors {
			for _, method := range g.Methods {
				for _, obj := range g.Objectives {
					for _, groups := range append([]int{0}, g.Groups...) {
						cells = append(cells, call{"optimize", &OptimizeRequest{CapacityBytes: capBytes, Flavor: flavor, Method: method, Objective: obj, Groups: groups}})
					}
				}
				if g.Pareto {
					cells = append(cells, call{"pareto", &OptimizeRequest{CapacityBytes: capBytes, Flavor: flavor, Method: method}})
				}
			}
		}
	}
	return cells
}
