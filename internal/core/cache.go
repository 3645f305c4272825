package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/ir"
	"devigo/internal/obs"
	"devigo/internal/opcache"
	"devigo/internal/perfmodel"
	"devigo/internal/symbolic"
)

// scheduleKeyVersion is bumped whenever compiled-kernel layout or the key
// derivation changes, so a cache shared across versions can never serve a
// stale artifact shape.
const scheduleKeyVersion = "devigo-schedule-v1"

// ScheduleKey derives the canonical content hash that addresses compiled
// artifacts in an operator cache: two NewOperator calls share a key
// exactly when their compiled kernel set is interchangeable. The hash
// covers, in order:
//
//   - the equations as submitted (pre-CIRE), rendered through the
//     symbolic package's deterministic structural String form;
//   - per referenced field (sorted by name): space order, staggering and
//     time-buffer count — the storage facts the compiled stencil offsets
//     depend on. Ghost width and local shape are deliberately excluded:
//     kernels resolve strides and buffer pointers at every Run, so halo
//     growth and per-rank chunk sizes never invalidate a compilation
//     (which is also why one key serves every rank of a world);
//   - the grid shape and physical extent;
//   - the decomposition topology ("serial" without one);
//   - the execution engine and the requested halo-exchange interval.
//
// Runtime knobs (workers, tile rows, halo mode) are excluded: they do not
// change compiled programs, and the autotuner may retarget them live.
func ScheduleKey(eqs []symbolic.Eq, fields map[string]*field.Function, g *grid.Grid,
	decomp *grid.Decomposition, engine string, timeTile int) string {
	h := sha256.New()
	w := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	w(scheduleKeyVersion, engine, fmt.Sprint(timeTile))
	w("grid", fmt.Sprint(g.Shape), fmt.Sprint(g.Extent))
	if decomp != nil {
		w("decomp", fmt.Sprint(decomp.Topology))
	} else {
		w("serial")
	}
	names := make([]string, 0, len(fields))
	for n := range fields {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fields[n]
		w("field", n, fmt.Sprint(f.SpaceOrder), fmt.Sprint(f.Stagger), fmt.Sprint(len(f.Bufs)))
	}
	for _, eq := range eqs {
		w("eq", eq.LHS.String(), eq.RHS.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CacheKey reports the operator's schedule hash, or "" when it was built
// without a cache (the key is only derived on the cached path).
func (op *Operator) CacheKey() string { return op.cacheKey }

// kernelsKey / schedKey / tuneKey are the cache sub-keys: one schedule
// hash addresses the compiled kernel set, the lowered cluster schedule,
// and the autotuner's chosen execution configuration.
func kernelsKey(key string) string { return key + "/kernels" }
func schedKey(key string) string   { return key + "/sched" }
func tuneKey(key string) string    { return key + "/tune" }

// cachedSchedule looks up the lowered cluster schedule for a key. Only
// scratch-free schedules are published (storeSchedule), so a hit implies
// the CIRE pass found nothing to materialise: the symbolic front-end —
// derivative expansion, cluster lowering, schedule optimization — can be
// skipped wholesale. The schedule is immutable after construction and its
// expressions reference symbolic field refs rather than storage, so
// sharing one *ir.Schedule across concurrently running operators is safe.
func cachedSchedule(cache *opcache.Cache, key string) (*ir.Schedule, bool) {
	if cache == nil || key == "" {
		return nil, false
	}
	v, ok := cache.Get(schedKey(key))
	if !ok {
		return nil, false
	}
	s, ok := v.(*ir.Schedule)
	return s, ok
}

// storeSchedule publishes a lowered schedule for reuse by later operators
// with the same key. Schedules with CIRE scratch clusters are not
// published: their scratch fields are per-operator storage created by the
// front-end, so skipping the front-end would leave the kernels referring
// to fields the operator never allocated.
func storeSchedule(cache *opcache.Cache, key string, sched *ir.Schedule, hasScratch bool) {
	if cache == nil || key == "" || hasScratch {
		return
	}
	cache.Put(schedKey(key), sched)
}

// compileKernels produces the operator's kernel set — one compiled kernel
// per schedule step — consulting the operator cache when one is attached.
// A hit rebinds the cached kernel set to this operator's fields (kernels
// are compiled once per unique ScheduleKey and shared across shots); a
// miss compiles and publishes the set under singleflight, so concurrent
// operators racing on a cold key block on one in-flight compilation
// instead of duplicating it. The obs compile/hit/miss counters record
// which path ran.
func (op *Operator) compileKernels(engine string, compileAll func() ([]ExecKernel, error)) ([]ExecKernel, error) {
	rank := op.obsRank()
	if op.cache == nil {
		obs.Add(rank, obs.CtrOpCompiles, 1)
		return compileAll()
	}
	v, hit, err := op.cache.GetOrCompute(kernelsKey(op.cacheKey), func() (any, error) {
		obs.Add(rank, obs.CtrOpCompiles, 1)
		return compileAll()
	})
	if err != nil {
		return nil, err
	}
	cached, ok := v.([]ExecKernel)
	if !ok {
		return nil, fmt.Errorf("core: %s: operator cache holds %T under kernels key (corrupt entry)", op.Name, v)
	}
	if !hit {
		obs.Add(rank, obs.CtrOpCacheMisses, 1)
		return cached, nil
	}
	obs.Add(rank, obs.CtrOpCacheHits, 1)
	rebound := make([]ExecKernel, len(cached))
	for i, k := range cached {
		// Each engine's own Rebind: a copy executing against this
		// operator's storage, resolved by field name, safe to run
		// concurrently with the cached original.
		if rebound[i], err = k.Rebind(op.Fields); err != nil {
			return nil, fmt.Errorf("core: %s: %w", op.Name, err)
		}
	}
	return rebound, nil
}

// cachedTuneConfig looks up the autotuner's previously chosen execution
// configuration for this operator's schedule key.
func (op *Operator) cachedTuneConfig() (perfmodel.ExecConfig, bool) {
	if op.cache == nil || op.cacheKey == "" {
		return perfmodel.ExecConfig{}, false
	}
	v, ok := op.cache.Get(tuneKey(op.cacheKey))
	if !ok {
		return perfmodel.ExecConfig{}, false
	}
	cfg, ok := v.(perfmodel.ExecConfig)
	return cfg, ok
}

// storeTuneConfig publishes the autotuner's chosen configuration so later
// operators sharing the schedule key adopt it without re-tuning (skipping
// the warmup and trial steps entirely).
func (op *Operator) storeTuneConfig(cfg perfmodel.ExecConfig) {
	if op.cache == nil || op.cacheKey == "" {
		return
	}
	op.cache.Put(tuneKey(op.cacheKey), cfg)
}
