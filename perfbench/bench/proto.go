package bench

// Stats is the server process's answer to the "stats" command.
type Stats struct {
	// CPUNS is the process's user+sys CPU time.
	CPUNS int64 `json:"cpu_ns"`
	// Allocs is runtime/metrics /gc/heap/allocs:objects.
	Allocs uint64 `json:"allocs"`
	// GCCPUSec and TotalCPUSec are the runtime's CPU estimates for the
	// garbage collector and for everything.
	GCCPUSec    float64 `json:"gc_cpu_s"`
	TotalCPUSec float64 `json:"total_cpu_s"`
	GCCycles    uint64  `json:"gc_cycles"`
	HeapLive    uint64  `json:"heap_live_bytes"`
	// HWMKiB is the peak resident set size (VmHWM).
	HWMKiB int64 `json:"vm_hwm_kib"`
	// Orders counts the orders rows over every shard.
	Orders int `json:"orders_rows"`
	// Probes holds every variant.Probe of the instance by name.
	Probes map[string]float64 `json:"probes"`
}

// Orders is the server process's answer to "orders <json>", which
// lists acknowledged purchases as [c_id, o_id] pairs.
type Orders struct {
	Present int   `json:"present"`
	Missing []int `json:"missing"`
	Rows    []int `json:"rows_per_shard"`
}
