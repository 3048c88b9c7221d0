package vclock

// A reference implementation of the engine's scheduling discipline whose only
// data structure is a linear min-scan over all vCPUs. It exists to pin the
// heap engine's behaviour: both implement "act only at the global minimum
// (clock, id), hand contended locks to the smallest waiter", so a randomized
// workload driven through both must produce the exact same event order. Any
// divergence is a bug in the heap/intent machinery, not a modelling choice.

import "sync"

type linEngine struct {
	mu    sync.Mutex
	cpus  []*linCPU
	cores int
	wg    sync.WaitGroup
	start chan struct{} // armed by hold: launched vCPUs wait for it
}

type linCPU struct {
	id       int
	e        *linEngine
	now      int64
	lazy     int64
	runnable bool
	waiting  bool
	wake     chan struct{}
}

func newLinEngine(cores int) *linEngine { return &linEngine{cores: cores} }

// minLocked returns the runnable vCPU with the smallest (now, id) — the O(n)
// scan the heap replaces.
func (e *linEngine) minLocked() *linCPU {
	var m *linCPU
	for _, c := range e.cpus {
		if !c.runnable {
			continue
		}
		if m == nil || c.now < m.now || (c.now == m.now && c.id < m.id) {
			m = c
		}
	}
	return m
}

func (e *linEngine) signalMinLocked() {
	if m := e.minLocked(); m != nil && m.waiting {
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
}

func (e *linEngine) gateLocked(c *linCPU) {
	for e.minLocked() != c {
		e.signalMinLocked()
		c.waiting = true
		e.mu.Unlock()
		<-c.wake
		e.mu.Lock()
		c.waiting = false
	}
}

func (c *linCPU) flushLazyLocked() {
	c.now += c.lazy
	c.lazy = 0
}

// hold is Engine.Hold: vCPUs launched until release is called are admitted
// at once but start running only after it.
func (e *linEngine) hold() (release func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ch := make(chan struct{})
	e.start = ch
	return func() {
		e.mu.Lock()
		e.start = nil
		e.mu.Unlock()
		close(ch)
	}
}

func (e *linEngine) goCPU(start int64, fn func(c *linCPU)) {
	e.mu.Lock()
	c := &linCPU{id: len(e.cpus), e: e, now: start, runnable: true, wake: make(chan struct{}, 1)}
	e.cpus = append(e.cpus, c)
	e.signalMinLocked()
	hold := e.start
	e.mu.Unlock()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		if hold != nil {
			<-hold
		}
		fn(c)
		e.mu.Lock()
		c.flushLazyLocked()
		c.runnable = false
		e.signalMinLocked()
		e.mu.Unlock()
	}()
}

func (e *linEngine) wait() { e.wg.Wait() }

func (c *linCPU) advance(d int64) {
	e := c.e
	e.mu.Lock()
	c.flushLazyLocked()
	e.gateLocked(c)
	c.now += d
	e.signalMinLocked()
	e.mu.Unlock()
}

func (c *linCPU) compute(d int64) {
	e := c.e
	e.mu.Lock()
	c.flushLazyLocked()
	e.gateLocked(c)
	if e.cores > 0 {
		r := 0
		for _, o := range e.cpus {
			if o.runnable {
				r++
			}
		}
		if r > e.cores {
			d = d * int64(r) / int64(e.cores)
		}
	}
	c.now += d
	e.signalMinLocked()
	e.mu.Unlock()
}

func (c *linCPU) advanceLazy(d int64) { c.lazy += d }

// syncGate blocks until c holds the minimum clock (Sync equivalent). On
// return every other vCPU is parked until c's next engine operation.
func (c *linCPU) syncGate() {
	e := c.e
	e.mu.Lock()
	c.flushLazyLocked()
	e.gateLocked(c)
	e.mu.Unlock()
}

func (c *linCPU) nowVirtual() int64 {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	return c.now + c.lazy
}

type linLock struct {
	e       *linEngine
	held    bool
	holder  *linCPU
	freeAt  int64
	waiters []*linCPU
}

func (e *linEngine) newLock() *linLock { return &linLock{e: e} }

func (l *linLock) acquire(c *linCPU) {
	e := l.e
	e.mu.Lock()
	c.flushLazyLocked()
	e.gateLocked(c)
	if l.held {
		c.runnable = false
		l.waiters = append(l.waiters, c)
		e.signalMinLocked()
		for l.holder != c {
			c.waiting = true
			e.mu.Unlock()
			<-c.wake
			e.mu.Lock()
			c.waiting = false
		}
		e.mu.Unlock()
		return
	}
	if l.freeAt > c.now {
		c.now = l.freeAt
	}
	l.held = true
	l.holder = c
	e.signalMinLocked()
	e.mu.Unlock()
}

func (l *linLock) release(c *linCPU) {
	e := l.e
	e.mu.Lock()
	c.flushLazyLocked()
	e.gateLocked(c)
	l.freeAt = c.now
	if len(l.waiters) == 0 {
		l.held = false
		l.holder = nil
		e.signalMinLocked()
		e.mu.Unlock()
		return
	}
	best := 0
	for i, w := range l.waiters[1:] {
		if w.now < l.waiters[best].now ||
			(w.now == l.waiters[best].now && w.id < l.waiters[best].id) {
			best = i + 1
		}
	}
	w := l.waiters[best]
	l.waiters = append(l.waiters[:best], l.waiters[best+1:]...)
	if w.now < l.freeAt {
		w.now = l.freeAt
	}
	l.holder = w
	w.runnable = true
	if w.waiting {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	e.signalMinLocked()
	e.mu.Unlock()
}
