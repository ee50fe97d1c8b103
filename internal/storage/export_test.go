package storage

// InflightWrites returns the number of write I/Os submitted but not yet
// completed (or lost) — the population a crash would tear.
func (d *Device[I]) InflightWrites() int { return len(d.inflight) }

// SpareRecords returns the number of in-flight records waiting to be reused.
func (d *Device[I]) SpareRecords() int { return d.spare.Len() }

// SpareReads returns the number of read records waiting to be reused.
func (d *Device[I]) SpareReads() int { return d.spareReads.Len() }
