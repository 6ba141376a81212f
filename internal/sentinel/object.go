// Package sentinel reimplements the substrate the paper's prototype runs
// on: Sentinel+, an active object-oriented system. It provides
//
//   - reactive objects, whose designated methods are primitive event
//     generators (the "event interface" of Sentinel);
//   - notifiable objects, which are informed of event occurrences;
//   - the external monitoring module, which injects external/sensor
//     events (location changes, network state) into the detector;
//   - the Engine, which wires an event detector, an OWTE rule pool and
//     an RBAC store together and offers the synchronous decision calls
//     the enforcement layer is built on.
package sentinel

import (
	"fmt"
	"sort"
	"sync"

	"activerbac/internal/event"
)

// MethodEvent returns the canonical primitive-event name for a method
// invocation on an object: "object.method" (the paper's
// U -> F(PA1..PAn) notation, with the invoking subject carried in the
// parameters).
func MethodEvent(object, method string) string {
	return object + "." + method
}

// ReactiveObject is a Sentinel reactive object: a named object whose
// designated methods generate primitive events when invoked.
type ReactiveObject struct {
	name string
	det  *event.Detector

	mu      sync.RWMutex
	methods map[string]struct{}
}

// NewReactiveObject registers a reactive object with the detector.
//
//rbacvet:api Sentinel+ reactive objects (DESIGN §1); paper_rules_test.go drives the paper's rules through them
func NewReactiveObject(det *event.Detector, name string) *ReactiveObject {
	return &ReactiveObject{name: name, det: det, methods: make(map[string]struct{})}
}

// Name returns the object's name.
func (o *ReactiveObject) Name() string { return o.name }

// DesignateMethod marks method as a primitive event generator and
// defines the corresponding event.
//
//rbacvet:api Sentinel+ reactive objects (DESIGN §1); paper_rules_test.go drives the paper's rules through them
func (o *ReactiveObject) DesignateMethod(method string) error {
	if method == "" {
		return fmt.Errorf("sentinel: empty method name on %q", o.name)
	}
	if err := o.det.DefinePrimitive(MethodEvent(o.name, method)); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.methods[method] = struct{}{}
	return nil
}

// Methods lists the designated methods, sorted.
//
//rbacvet:api Sentinel+ reactive objects (DESIGN §1); paper_rules_test.go drives the paper's rules through them
func (o *ReactiveObject) Methods() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]string, 0, len(o.methods))
	for m := range o.methods {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Invoke calls a designated method: it raises the method's primitive
// event with the given parameters. Invoking a non-designated method is
// an error (the object has no event interface for it).
//
//rbacvet:api Sentinel+ reactive objects (DESIGN §1); paper_rules_test.go drives the paper's rules through them
func (o *ReactiveObject) Invoke(method string, params event.Params) error {
	o.mu.RLock()
	_, ok := o.methods[method]
	o.mu.RUnlock()
	if !ok {
		return fmt.Errorf("sentinel: method %q not designated on object %q", method, o.name)
	}
	return o.det.Raise(MethodEvent(o.name, method), params)
}

// Notifiable is a Sentinel notifiable object: it is capable of being
// informed of event occurrences.
type Notifiable interface {
	Notify(*event.Occurrence)
}

// NotifyOn subscribes a notifiable object to an event and returns the
// subscription id.
//
//rbacvet:api Sentinel+ reactive objects (DESIGN §1); paper_rules_test.go drives the paper's rules through them
func NotifyOn(det *event.Detector, eventName string, n Notifiable) (int, error) {
	return det.Subscribe(eventName, n.Notify)
}
