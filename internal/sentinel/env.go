package sentinel

import (
	"sync"
)

// Env is the engine's environmental context: the key/value state that
// external sensors report (location of a user's terminal, network
// security classification, emergency mode). The paper's context-aware
// scenarios — "when an user tries to open a protected file in a
// pervasive computing domain, the system can check whether the network
// is secure or insecure" — read this store from rule conditions, and
// context-update events both write it and trigger reactive rules
// (activating/deactivating roles as users move).
type Env struct {
	mu   sync.RWMutex
	vals map[string]string
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{vals: make(map[string]string)}
}

// Set stores a context value and returns the previous value.
func (e *Env) Set(key, value string) (prev string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	prev = e.vals[key]
	e.vals[key] = value
	return prev
}

// Get reads a context value; ok is false for unset keys.
func (e *Env) Get(key string) (value string, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	value, ok = e.vals[key]
	return value, ok
}

// Match reports whether key currently holds want. Unset keys match
// nothing (fail closed).
func (e *Env) Match(key, want string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.vals[key] == want && want != ""
}
