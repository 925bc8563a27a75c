package cache

import "repro/internal/telemetry"

// RegisterMetrics publishes the cache's counters under prefix (for
// example "cluster0/cache").
func (c *Cache) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	s := reg.Scope(prefix)
	s.Counter("hits", &c.Hits)
	s.Counter("misses", &c.Misses)
	s.Counter("writebacks", &c.Writebacks)
	s.Counter("bank_stalls", &c.BankStalls)
	s.Counter("mshr_stalls", &c.MSHRStalls)
	s.Counter("fault_bank_busies", &c.FaultBankBusies)
	s.Counter("fault_bank_stalls", &c.FaultBankStalls)
}
