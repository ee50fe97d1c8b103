package storage

// InflightWrites returns the number of write I/Os submitted but not yet
// completed (or lost) — the population a crash would tear.
func (d *Device[I]) InflightWrites() int { return len(d.inflight) }
