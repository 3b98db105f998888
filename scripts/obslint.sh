#!/bin/sh
# obslint: grep-based invariants of the request-observability layer.
#
# 1. Server.Handler must wrap the mux in the instrument middleware — it is
#    what stamps X-Request-ID on every response (including 4xx/5xx written
#    before a job record exists) and feeds the flight recorder.
# 2. internal/server must not re-grow a raw expvar.Handler() — it leaks
#    cmdline and the full memstats dump; /metricz serves a curated document.
# 3. No handler may write a response around the instrumented writer:
#    http.Error and raw WriteHeader calls bypass the writeJSON/writeError
#    helpers that keep status capture and error-class tagging correct.
#    WriteHeader is allowed only in server.go (the writeJSON helper),
#    metricz.go (the Prometheus text path), and obsmw.go (the statusWriter
#    passthrough itself).
#
# Exits non-zero with a message on the first violated invariant.
set -eu
cd "$(dirname "$0")/.."

fail() {
	echo "obslint: $1" >&2
	exit 1
}

grep -q 'return s\.instrument(s\.mux)' internal/server/server.go ||
	fail "Server.Handler no longer wraps the mux in s.instrument — responses would lose X-Request-ID"

if grep -rn 'expvar\.Handler()' internal/server/ --include='*.go' | grep -v '_test\.go' | grep -q .; then
	fail "internal/server uses expvar.Handler(), which exposes cmdline and full memstats; serve the curated /metricz instead"
fi

if grep -rn 'http\.Error(' internal/server/ --include='*.go' | grep -v '_test\.go' | grep -q .; then
	fail "internal/server calls http.Error, bypassing writeError (no request-ID header, no error-class capture)"
fi

for f in $(grep -rl 'WriteHeader(' internal/server/ --include='*.go' | grep -v '_test\.go'); do
	case "$f" in
	internal/server/server.go | internal/server/metricz.go | internal/server/obsmw.go) ;;
	*) fail "$f calls WriteHeader directly — route responses through writeJSON/writeError so they stay instrumented" ;;
	esac
done

# 4. The GET range route must be registered on s.mux inside routes(), where
#    the instrument middleware (invariant 1) stamps X-Request-ID on it like
#    every other submission endpoint — a GET handler mounted elsewhere
#    would silently skip request-ID stamping and the flight recorder.
grep -q 'HandleFunc("GET /v1/streams/{id}/range"' internal/server/server.go ||
	fail "GET /v1/streams/{id}/range is not registered on the instrumented mux in routes()"

# 5. The POST form of the range route was removed: GET is the one range
#    endpoint, and a POST there answers 405. No route may re-register it.
if grep -rn '"POST /v1/streams/{id}/range"' internal/server/ --include='*.go' | grep -v '_test\.go' | grep -q .; then
	fail "a POST /v1/streams/{id}/range route is registered; range queries are GET only"
fi

echo "obslint: ok"
