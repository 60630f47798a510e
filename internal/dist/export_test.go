package dist

// PendingWaiters reports how many (job, cell) waiters each pending task
// holds, in queue order.
func (d *Dispatcher) PendingWaiters() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, len(d.pending))
	for i, t := range d.pending {
		out[i] = len(t.waiters)
	}
	return out
}
