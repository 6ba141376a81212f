package parbac

// Only this package's tests call the declarations below, so they
// live beside the tests (rbacvet's unused pass keeps it that way).

// Covers reports whether an authorization for purpose allowed covers a
// request for purpose requested: equal, or requested is a descendant of
// allowed.
func (m *Manager) Covers(allowed, requested string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.coversLocked(allowed, requested)
}
