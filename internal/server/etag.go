package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// Conditional requests for the compute endpoints: every /v1/simulate
// and /v1/model response carries a strong ETag derived from the
// canonical job key and the result's canonical JSON. Results are
// deterministic functions of the job, so the same job yields the same
// ETag on every node and every restart — which makes If-None-Match
// work across failovers, not just against one process. The memoized
// flag is deliberately excluded from the hash: it describes this
// request's cache luck, not the entity.

// resultETag computes the quoted strong validator for a computed
// payload under its canonical job key.
func resultETag(key string, payload any) (string, bool) {
	body, err := json.Marshal(payload)
	if err != nil {
		return "", false
	}
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(body)
	sum := h.Sum(nil)
	return `"` + hex.EncodeToString(sum[:16]) + `"`, true
}

// ETagMatch implements the If-None-Match strong comparison: a bare *
// matches any current entity; weak validators (W/"...") never
// strong-match. Exported because the cluster coordinator answers
// conditional requests at the edge with backend-computed validators.
func ETagMatch(headerValue, etag string) bool {
	for _, candidate := range strings.Split(headerValue, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" || candidate == etag {
			return true
		}
	}
	return false
}

// writeConditional sets the ETag header and either answers 304 (no
// body) when the client's If-None-Match matches, or writes the full
// body. The memoized verdict rides the X-Vcached-Memoized header on
// 304s so clients keep an accurate flag without a body.
func (s *Server) writeConditional(w http.ResponseWriter, r *http.Request, key string, payload any, memoized bool, body any) {
	if etag, ok := resultETag(key, payload); ok {
		w.Header().Set("ETag", etag)
		if inm := r.Header.Get("If-None-Match"); inm != "" && ETagMatch(inm, etag) {
			s.m.notModified.Inc()
			w.Header().Set(MemoizedHeader, strconv.FormatBool(memoized))
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// MemoizedHeader carries the memoized verdict on bodiless 304
// responses.
const MemoizedHeader = "X-Vcached-Memoized"
