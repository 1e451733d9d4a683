package dnndk

import "sync"

// A sharedStore holds process-wide values that are pure functions of
// their key and costly to make: golden runs (tracestore.go) and compiled
// kernels (kernelstore.go). The first ask for a key makes the value; an
// ask for the same key while that is running waits for it instead of
// making its own. Every ask takes one reference, and the last release
// frees the entry, so a value lives exactly as long as someone holds it.
type sharedStore[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*shared[K, V]
}

func newSharedStore[K comparable, V any]() *sharedStore[K, V] {
	return &sharedStore[K, V]{entries: make(map[K]*shared[K, V])}
}

// shared is one entry. ready is closed once val or err is set; neither
// changes after that.
type shared[K comparable, V any] struct {
	st    *sharedStore[K, V]
	key   K
	refs  int // guarded by st.mu
	ready chan struct{}
	val   V
	err   error
}

// acquire returns key's entry holding one more reference, running fill
// on a miss. A failed fill holds no reference: the failed entry goes
// with its last asker, so a later ask tries again.
func (s *sharedStore[K, V]) acquire(key K, fill func() (V, error)) (*shared[K, V], error) {
	s.mu.Lock()
	e, hit := s.entries[key]
	if !hit {
		e = &shared[K, V]{st: s, key: key, ready: make(chan struct{})}
		s.entries[key] = e
	}
	e.refs++
	s.mu.Unlock()
	if hit {
		<-e.ready
	} else {
		func() {
			defer close(e.ready)
			e.val, e.err = fill()
		}()
	}
	if e.err != nil {
		e.release()
		return nil, e.err
	}
	return e, nil
}

// retain adds a reference to an entry the caller already holds.
func (e *shared[K, V]) retain() {
	e.st.mu.Lock()
	e.refs++
	e.st.mu.Unlock()
}

// release drops one reference; the last one frees the entry.
func (e *shared[K, V]) release() {
	s := e.st
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.refs--; e.refs == 0 {
		delete(s.entries, e.key)
	}
}

// held reports how many entries have a key that match accepts, and the
// references they hold in all.
func (s *sharedStore[K, V]) held(match func(K) bool) (entries, refs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, e := range s.entries {
		if match(key) {
			entries++
			refs += e.refs
		}
	}
	return entries, refs
}
