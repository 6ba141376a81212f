package main

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"activerbac"
)

// fuzzRoutes are the endpoints whose JSON (or, for the policy, .acp)
// request bodies FuzzHTTPBodies drives; the fuzzed route byte picks one.
var fuzzRoutes = []struct{ method, path string }{
	{"POST", "/v1/check-batch"},
	{"POST", "/v1/sessions"},
	{"DELETE", "/v1/sessions"},
	{"POST", "/v1/activate"},
	{"POST", "/v1/context"},
	{"POST", "/v1/policy"},
}

// fuzzStatuses are the answers a body may get: success, a malformed or
// refused request, a missing entity, a conflict, an oversized body or a
// rejected policy. A 5xx means a body reached a path the handlers do
// not map.
var fuzzStatuses = map[int]bool{
	http.StatusOK: true, http.StatusBadRequest: true, http.StatusForbidden: true,
	http.StatusNotFound: true, http.StatusConflict: true,
	http.StatusRequestEntityTooLarge: true, http.StatusUnprocessableEntity: true,
}

// FuzzHTTPBodies sends one arbitrary body to one of rbacd's body-taking
// endpoints on a fresh server holding two live sessions (bob's s1 with
// PC active, carol's s2 with AC), shipped gate modes. Nothing may
// panic, every answer must be one of fuzzStatuses, and the store's
// invariants must hold afterwards. Seeds are in
// testdata/fuzz/FuzzHTTPBodies.
func FuzzHTTPBodies(f *testing.F) {
	prev := log.Writer()
	log.SetOutput(io.Discard) // analyze findings of fuzzed policies
	f.Cleanup(func() { log.SetOutput(prev) })
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		sys, err := activerbac.Open(testPolicy, &activerbac.Options{
			Clock: activerbac.NewSimClock(time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		for _, ur := range [][2]string{{"bob", "PC"}, {"carol", "AC"}} {
			sid, err := sys.CreateSession(activerbac.UserID(ur[0]))
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.AddActiveRole(activerbac.UserID(ur[0]), sid, activerbac.RoleID(ur[1])); err != nil {
				t.Fatal(err)
			}
		}
		s := &server{sys: sys, analyzeMode: "warn", verifyMode: "off"}
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		rec := httptest.NewRecorder()
		s.routes().ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body)))
		if !fuzzStatuses[rec.Code] {
			t.Fatalf("%s %s %q: status %d: %s", rt.method, rt.path, body, rec.Code, rec.Body)
		}
		if errs := s.system().CheckInvariants(); len(errs) != 0 {
			t.Fatalf("%s %s %q broke invariants: %v", rt.method, rt.path, body, errs)
		}
	})
}
