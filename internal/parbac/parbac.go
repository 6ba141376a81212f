// Package parbac implements privacy-aware RBAC (He's extended RBAC
// model, cited as the paper's privacy extension): business purposes
// organized in a hierarchy, permissions bound to the purposes they may
// be exercised for, object-level consent requirements, and a
// purpose-aware access decision that layers on top of the core RBAC
// store.
//
// Semantics: a permission bound to purpose P may be exercised for P and
// for every descendant (more specific) purpose of P. An object marked
// consent-required additionally needs recorded data-subject consent for
// the requested purpose (or an ancestor of it).
package parbac

import (
	"fmt"
	"sort"
	"sync"

	"activerbac/internal/rbac"
)

// purpose is one node in the purpose tree.
type purpose struct {
	name     string
	parent   string
	children []string
}

// bindingKey addresses a purpose binding.
type bindingKey struct {
	Role rbac.RoleID
	Perm rbac.Permission
}

// consentKey addresses recorded consent.
type consentKey struct {
	Object  string
	Purpose string
}

// Manager is the privacy-aware RBAC layer.
type Manager struct {
	store *rbac.Store

	mu              sync.RWMutex
	purposes        map[string]*purpose
	bindings        map[bindingKey]map[string]struct{}
	consent         map[consentKey]struct{}
	consentRequired map[string]struct{}
}

// New builds an empty privacy layer over store.
func New(store *rbac.Store) *Manager {
	return &Manager{
		store:           store,
		purposes:        make(map[string]*purpose),
		bindings:        make(map[bindingKey]map[string]struct{}),
		consent:         make(map[consentKey]struct{}),
		consentRequired: make(map[string]struct{}),
	}
}

// ---------------------------------------------------------------------------
// Purpose tree

// AddPurpose registers a purpose; parent may be empty for a root
// purpose.
func (m *Manager) AddPurpose(name, parent string) error {
	if name == "" {
		return fmt.Errorf("parbac: empty purpose name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.purposes[name]; dup {
		return fmt.Errorf("parbac: purpose %q: %w", name, rbac.ErrExists)
	}
	if parent != "" {
		p, ok := m.purposes[parent]
		if !ok {
			return fmt.Errorf("parbac: parent purpose %q: %w", parent, rbac.ErrNotFound)
		}
		p.children = append(p.children, name)
	}
	m.purposes[name] = &purpose{name: name, parent: parent}
	return nil
}

// Purposes lists registered purpose names, sorted.
func (m *Manager) Purposes() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.purposes))
	for n := range m.purposes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (m *Manager) coversLocked(allowed, requested string) bool {
	if _, ok := m.purposes[allowed]; !ok {
		return false
	}
	cur := requested
	for cur != "" {
		if cur == allowed {
			return true
		}
		p, ok := m.purposes[cur]
		if !ok {
			return false
		}
		cur = p.parent
	}
	return false
}

// ---------------------------------------------------------------------------
// Purpose bindings

// BindPurpose allows role r to exercise permission p for the given
// purpose (and its descendants). The role and purpose must exist; the
// permission need not be granted in the core store — the privacy layer
// is checked *in addition to* the core decision.
func (m *Manager) BindPurpose(r rbac.RoleID, p rbac.Permission, purposeName string) error {
	if !m.store.RoleExists(r) {
		return fmt.Errorf("parbac: role %q: %w", r, rbac.ErrNotFound)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.purposes[purposeName]; !ok {
		return fmt.Errorf("parbac: purpose %q: %w", purposeName, rbac.ErrNotFound)
	}
	k := bindingKey{Role: r, Perm: p}
	set := m.bindings[k]
	if set == nil {
		set = make(map[string]struct{})
		m.bindings[k] = set
	}
	if _, dup := set[purposeName]; dup {
		return fmt.Errorf("parbac: binding %v/%v/%q: %w", r, p, purposeName, rbac.ErrExists)
	}
	set[purposeName] = struct{}{}
	return nil
}

// UnbindPurpose removes a purpose binding.
func (m *Manager) UnbindPurpose(r rbac.RoleID, p rbac.Permission, purposeName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := bindingKey{Role: r, Perm: p}
	set := m.bindings[k]
	if _, ok := set[purposeName]; !ok {
		return fmt.Errorf("parbac: binding %v/%v/%q: %w", r, p, purposeName, rbac.ErrNotFound)
	}
	delete(set, purposeName)
	return nil
}

// AllowedPurposes lists the purposes role r may exercise p for, sorted.
func (m *Manager) AllowedPurposes(r rbac.RoleID, p rbac.Permission) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	set := m.bindings[bindingKey{Role: r, Perm: p}]
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Consent

// SetConsentRequired marks an object as needing data-subject consent.
func (m *Manager) SetConsentRequired(object string, required bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if required {
		m.consentRequired[object] = struct{}{}
	} else {
		delete(m.consentRequired, object)
	}
}

// GrantConsent records data-subject consent for using object for
// purposeName (and its descendants).
func (m *Manager) GrantConsent(object, purposeName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.purposes[purposeName]; !ok {
		return fmt.Errorf("parbac: purpose %q: %w", purposeName, rbac.ErrNotFound)
	}
	m.consent[consentKey{Object: object, Purpose: purposeName}] = struct{}{}
	return nil
}

// RevokeConsent withdraws previously granted consent.
func (m *Manager) RevokeConsent(object, purposeName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := consentKey{Object: object, Purpose: purposeName}
	if _, ok := m.consent[k]; !ok {
		return fmt.Errorf("parbac: consent %q/%q: %w", object, purposeName, rbac.ErrNotFound)
	}
	delete(m.consent, k)
	return nil
}

// hasConsentLocked reports whether consent on object covers purposeName.
func (m *Manager) hasConsentLocked(object, purposeName string) bool {
	for k := range m.consent {
		if k.Object == object && m.coversLocked(k.Purpose, purposeName) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Decision

// CheckPurposeAccess is the privacy-aware decision: may session sid
// exercise permission p for the stated purpose? It requires
//
//  1. some role active in the session (or a junior it inherits) to have
//     a purpose binding for p covering the purpose, and
//  2. when the object is consent-required, recorded consent covering
//     the purpose.
//
// On denial it returns a human-readable reason. It does not re-check the
// core RBAC permission — callers combine it with Store.CheckAccess.
func (m *Manager) CheckPurposeAccess(sid rbac.SessionID, p rbac.Permission, purposeName string) (string, bool) {
	m.mu.RLock()
	_, purposeKnown := m.purposes[purposeName]
	m.mu.RUnlock()
	if !purposeKnown {
		return fmt.Sprintf("unknown purpose %q", purposeName), false
	}

	roles, err := m.store.SessionRoles(sid)
	if err != nil {
		return fmt.Sprintf("unknown session %q", sid), false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	bound := false
	for _, r := range roles {
		// An active senior role exercises its juniors' bindings.
		desc, err := m.store.Descendants(r)
		if err != nil {
			continue
		}
		for _, dr := range desc {
			for allowed := range m.bindings[bindingKey{Role: dr, Perm: p}] {
				if m.coversLocked(allowed, purposeName) {
					bound = true
					break
				}
			}
			if bound {
				break
			}
		}
		if bound {
			break
		}
	}
	if !bound {
		return fmt.Sprintf("no active role permits %v for purpose %q", p, purposeName), false
	}
	if _, need := m.consentRequired[p.Object]; need && !m.hasConsentLocked(p.Object, purposeName) {
		return fmt.Sprintf("no consent recorded for %q with purpose %q", p.Object, purposeName), false
	}
	return "", true
}
