package mkernel

import (
	"sort"
	"sync"

	"autogemm/internal/asm"
	"autogemm/internal/sim/compile"
)

// Key identifies one kernel variant in the cache — the same string a
// serialized execution plan records in its KernelKeys list, so a
// registry-loaded plan and a freshly produced one address identical
// cache entries. Call.Key is the only producer.
type Key string

// Cache memoizes generated kernels by their unified Key. Kernel
// generation is cheap but plans request the same corner-case shapes
// many times; the paper's library likewise JIT-caches its kernels.
//
// One entry holds both forms of a kernel: the asm program and its
// compiled closure-threaded form (internal/sim/compile), each built
// lazily and at most once. Compile failures are memoized too: a kernel
// the analyzer cannot prove bound-safe fails deterministically, so
// repeated executions never re-run the analyzer just to fall back to
// the interpreter again.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*cacheEntry
}

type cacheEntry struct {
	prog *asm.Program
	err  error

	compiled   bool // compile attempted
	cprog      *compile.Program
	compileErr error
}

// NewCache returns an empty kernel cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[Key]*cacheEntry)}
}

// entry returns (creating if needed) the slot for a key with the asm
// form resolved through generate.
func (c *Cache) entry(key Key, generate func() (*asm.Program, error)) *cacheEntry {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		return e
	}
	p, err := generate()
	c.mu.Lock()
	if prev, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return prev
	}
	e = &cacheEntry{prog: p, err: err}
	c.entries[key] = e
	c.mu.Unlock()
	return e
}

// Program returns the (possibly cached) asm form of a call's kernel.
func (c *Cache) Program(cl Call) (*asm.Program, error) {
	e := c.entry(cl.Key(), cl.generate)
	return e.prog, e.err
}

// Compiled returns the closure-threaded form of a call's kernel, or the
// memoized compile failure (callers then use the checked interpreter on
// the asm form from Program). The compiled form is built at most once
// under the cache lock (compilation is deterministic and fast; a coarse
// lock keeps the negative-caching atomic with the asm form).
func (c *Cache) Compiled(cl Call) (*compile.Program, error) {
	e := c.entry(cl.Key(), cl.generate)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.compiled {
		return e.cprog, e.compileErr
	}
	e.compiled = true
	if e.err != nil {
		e.compileErr = e.err
		return nil, e.compileErr
	}
	aopts, err := cl.AnalysisOptions()
	if err != nil {
		e.compileErr = err
		return nil, err
	}
	e.cprog, e.compileErr = compile.Compile(e.prog,
		compile.Options{Lanes: aopts.Bounds.Lanes, Bounds: *aopts.Bounds, Rotation: aopts.Rotation})
	return e.cprog, e.compileErr
}

// CompiledKernel returns the compiled single-tile kernel for cfg; see
// Compiled.
func (c *Cache) CompiledKernel(cfg Config) (*compile.Program, error) {
	return c.Compiled(Call{Count: 1, Kernel: cfg})
}

// Size reports how many kernel variants are cached.
func (c *Cache) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Keys returns the cached kernel keys, sorted — the executor-side
// counterpart of a plan's KernelKeys list.
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	keys := make([]Key, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
