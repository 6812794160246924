#!/bin/sh
# serve-smoke.sh — the smodfleetd serving smoke drill the CI `drills`
# job runs: boot the daemon on loopback TCP from a 4-shard spec, drive
# a concurrent wall-clock client burst through smodfleetctl, edit the
# spec to 2 shards and SIGHUP, assert the reconcile loop converges (via
# /reconcile), and shut down cleanly. The daemon log is left at
# $SMOKE_DIR/smodfleetd.log (default /tmp/smod-serve-smoke) for CI to
# archive.
set -eu

GO=${GO:-go}
SMOKE_DIR=${SMOKE_DIR:-/tmp/smod-serve-smoke}
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
SPEC="$SMOKE_DIR/fleet.json"
ADDRS="$SMOKE_DIR/addrs"
LOG="$SMOKE_DIR/smodfleetd.log"

echo "== build"
$GO build -o "$SMOKE_DIR/smodfleetd" ./cmd/smodfleetd
$GO build -o "$SMOKE_DIR/smodfleetctl" ./cmd/smodfleetctl

cat > "$SPEC" <<'EOF'
{"schema":"smod-fleet-spec/v1","shards":4}
EOF

echo "== boot"
"$SMOKE_DIR/smodfleetd" -spec "$SPEC" -tcp 127.0.0.1:0 -http 127.0.0.1:0 \
	-barrier 50ms -poll 500ms -addrfile "$ADDRS" > "$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# Wait for the address file (the daemon writes it before serving).
i=0
while [ ! -s "$ADDRS" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "FAIL: daemon never wrote $ADDRS"; exit 1; }
	kill -0 "$PID" 2>/dev/null || { echo "FAIL: daemon died at boot"; cat "$LOG"; exit 1; }
	sleep 0.1
done
TCP=$(sed -n 's/^tcp=//p' "$ADDRS")
HTTP=$(sed -n 's/^http=//p' "$ADDRS")
echo "daemon up: tcp=$TCP http=$HTTP"

wait_converged() {
	want=$1
	i=0
	while :; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "FAIL: no convergence to $want shards"; \
			"$SMOKE_DIR/smodfleetctl" status -http "$HTTP" || true; exit 1; }
		status=$("$SMOKE_DIR/smodfleetctl" status -http "$HTTP" 2>/dev/null || true)
		live=$(printf '%s' "$status" | grep -c '"draining": false' || true)
		conv=$(printf '%s' "$status" | grep -c '"converged": true' || true)
		[ "$conv" -ge 1 ] && [ "$live" -eq "$want" ] && break
		sleep 0.1
	done
	echo "converged at $want live shards"
}

echo "== initial convergence"
wait_converged 4

echo "== client burst (tcp)"
"$SMOKE_DIR/smodfleetctl" burst -tcp "$TCP" -clients 8 -calls 50
"$SMOKE_DIR/smodfleetctl" call -tcp "$TCP" -key smoke -fn incr -arg 41 | grep -q "= 42" \
	|| { echo "FAIL: incr(41) != 42"; exit 1; }

echo "== live spec edit 4 -> 2"
cat > "$SPEC" <<'EOF'
{"schema":"smod-fleet-spec/v1","shards":2}
EOF
kill -HUP "$PID"
wait_converged 2

echo "== burst on the shrunk fleet"
"$SMOKE_DIR/smodfleetctl" burst -tcp "$TCP" -clients 4 -calls 25

echo "== graceful shutdown"
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "FAIL: daemon ignored SIGTERM"; exit 1; }
	sleep 0.1
done
trap - EXIT
grep -q "shutdown: clean" "$LOG" || { echo "FAIL: no clean shutdown"; cat "$LOG"; exit 1; }

echo "PASS: serve smoke (log: $LOG)"
