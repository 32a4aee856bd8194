#!/usr/bin/env bash
# Full local verification: configure, build and test — optionally under a
# sanitizer.
#
#   scripts/check.sh                # plain Release build + ctest
#   scripts/check.sh address        # ASan + UBSan build + ctest
#   scripts/check.sh thread         # TSan build + ctest (parallel tests)
#   scripts/check.sh all            # plain, then address, then thread
#
# Add --soak (any position) to soak the master/slave farm and the
# asynchronous island engine instead of the whole suite: the farm,
# transport, chaos and island tests run with LDGA_CHAOS_SOAK=1, which
# multiplies the chaos-GA repetitions so respawn, requeue,
# corrupt-reply recovery, and straggler-chaos convergence to the
# planted haplotype get exercised hard.
#
#   scripts/check.sh --soak          # plain chaos soak
#   scripts/check.sh thread --soak   # chaos soak under TSan
#
# Each mode uses its own build directory (build/, build-asan/, build-tsan/)
# so the presets can coexist.
set -euo pipefail

cd "$(dirname "$0")/.."

SOAK=""
MODE=""
for arg in "$@"; do
  case "${arg}" in
    --soak) SOAK=1 ;;
    --*) echo "unknown option '${arg}' (expected --soak)" >&2
         exit 2 ;;
    *) MODE="${arg}" ;;
  esac
done
MODE="${MODE:-plain}"

run_mode() {
  local mode="$1" dir sanitize
  case "${mode}" in
    plain)   dir=build       sanitize="" ;;
    address) dir=build-asan  sanitize=address ;;
    thread)  dir=build-tsan  sanitize=thread ;;
    *) echo "unknown mode '${mode}' (expected plain|address|thread|all)" >&2
       exit 2 ;;
  esac
  echo "== ${mode}: configuring ${dir}"
  cmake -B "${dir}" -S . -DLDGA_SANITIZE="${sanitize}" \
    -DLDGA_WARNINGS_AS_ERRORS=ON > /dev/null
  echo "== ${mode}: building"
  cmake --build "${dir}" -j "$(nproc)"
  if [[ -n "${SOAK}" ]]; then
    echo "== ${mode}: chaos-soaking the master/slave farm"
    LDGA_CHAOS_SOAK=1 ctest --test-dir "${dir}" --output-on-failure \
      -j "$(nproc)" \
      -R 'Chaos|MasterSlave|FarmFaultTolerance|BackendConformance|Mailbox|InProcessTransport|Crc32|SealedPayload|Island|EvaluationStream|Straggler'
  else
    echo "== ${mode}: testing"
    ctest --test-dir "${dir}" --output-on-failure -j "$(nproc)"
  fi
}

case "${MODE}" in
  all)
    run_mode plain
    run_mode address
    run_mode thread
    ;;
  *)
    run_mode "${MODE}"
    ;;
esac
echo "== all checks passed"
