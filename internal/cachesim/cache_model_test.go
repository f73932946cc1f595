// Package cachesim is a trace-driven set-associative cache simulator. The
// analytic traffic model in internal/gpusim predicts L1-filtered L2 traffic
// from footprints; this package computes the same quantity exactly, by
// generating a thread block's real (warp-granular, line-coalesced) address
// trace and replaying it through an LRU cache hierarchy. The paper leans
// on exactly this kind of simulation for liveness quantities that counters
// cannot report (Sec. V-C, citing [23]); here it doubles as a validation
// oracle for the analytic model (see validate_test.go).
package cachesim

import "fmt"

// Config describes one cache level.
type Config struct {
	SizeBytes int64
	LineBytes int64
	Ways      int64
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cachesim: nonpositive geometry %+v", c)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cachesim: size %d not a multiple of line %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cachesim: %d lines not divisible by %d ways", lines, c.Ways)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// HitRate returns hits/accesses (0 for an idle cache).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// line is one cache line's state.
type line struct {
	tag   int64
	valid bool
	dirty bool
	// lastUse is a logical timestamp for LRU.
	lastUse int64
}

// Cache is a set-associative write-back, write-allocate cache with LRU
// replacement.
type Cache struct {
	cfg   Config
	sets  int64
	lines []line // sets x ways
	clock int64
	Stats Stats
	// Next receives miss and writeback traffic (may be nil).
	Next *Cache
}

// New builds a cache. It panics on invalid geometry (a configuration bug).
func New(cfg Config, next *Cache) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	return &Cache{
		cfg:   cfg,
		sets:  sets,
		lines: make([]line, sets*cfg.Ways),
		Next:  next,
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Access touches one byte address (the whole line is cached).
func (c *Cache) Access(addr int64, write bool) {
	c.clock++
	c.Stats.Accesses++

	lineAddr := addr / c.cfg.LineBytes
	set := lineAddr % c.sets
	tag := lineAddr / c.sets
	base := set * c.cfg.Ways

	// Hit?
	for w := int64(0); w < c.cfg.Ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			c.Stats.Hits++
			l.lastUse = c.clock
			if write {
				l.dirty = true
			}
			return
		}
	}

	// Miss: fetch from the next level.
	c.Stats.Misses++
	if c.Next != nil {
		c.Next.Access(addr, false)
	}

	// Victim: invalid way first, else LRU.
	victim := &c.lines[base]
	for w := int64(0); w < c.cfg.Ways; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			victim = l
			break
		}
		if l.lastUse < victim.lastUse {
			victim = l
		}
	}
	if victim.valid {
		c.Stats.Evictions++
		if victim.dirty {
			c.Stats.Writebacks++
			if c.Next != nil {
				victimAddr := (victim.tag*c.sets + set) * c.cfg.LineBytes
				c.Next.Access(victimAddr, true)
			}
		}
	}
	*victim = line{tag: tag, valid: true, dirty: write, lastUse: c.clock}
}

// Flush writes back all dirty lines (end of kernel).
func (c *Cache) Flush() {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid && l.dirty {
			c.Stats.Writebacks++
			if c.Next != nil {
				set := int64(i) / c.cfg.Ways
				addr := (l.tag*c.sets + set) * c.cfg.LineBytes
				c.Next.Access(addr, true)
			}
			l.dirty = false
		}
	}
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.clock = 0
	c.Stats = Stats{}
}
