package dnndk

// storeRefs reports the references the trace store holds on key's entry
// (0: no entry).
func storeRefs(key traceKey) int {
	_, refs := traceStore.held(func(k traceKey) bool { return k == key })
	return refs
}
