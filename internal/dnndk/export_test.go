package dnndk

// storeRefs reports the references the trace store holds on key's entry
// (0: no entry).
func storeRefs(key traceKey) int {
	store.mu.Lock()
	defer store.mu.Unlock()
	if e, ok := store.entries[key]; ok {
		return e.refs
	}
	return 0
}
