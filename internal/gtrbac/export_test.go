package gtrbac

// Only this package's tests call the declarations below, so they
// live beside the tests (rbacvet's unused pass keeps it that way).

// PendingTimers reports how many duration timers are armed.
func (m *Manager) PendingTimers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.timers)
}
