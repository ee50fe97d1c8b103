package fs

// ResidentBuffers returns the total number of cached buffers (all levels).
func (f *File) ResidentBuffers() int { return f.resident }
