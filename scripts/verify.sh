#!/usr/bin/env bash
# Verification for the hermetic workspace, top to bottom with no section
# run by hand. Numbers are recorded and judged in one place only,
# `benchmark/` (see benchmark/README.md); the gates here are structural,
# bitwise, or ratios measured inside one run of one binary. The sections,
# in order, each announced by its `== ... ==` line:
#
#  * guards, before cargo runs: every dependency in every manifest is an
#    in-tree path dependency (an offline build needs nothing else); the
#    rank layer holds no copy of the solver's Krylov control flow or of
#    the core's edge physics; edges are walked in one file of the core
#    and nowhere in the rank layer; the perf-history stack that
#    `benchmark/` replaced has not come back; the ILU factors have one
#    storage format, one block-vector kernel and one forward and one
#    backward row; the gradient row's layout is spelled in one file, the
#    gradient is not an edge body and has no tiled model, unchecked
#    access in the core sits in four files, each use under a `SAFETY:`,
#    telemetry reads three variables, keeps one thread-local and one
#    ring type, and none of the knobs, sampler or rings it replaced; a
#    kernel call is timed once, by its telemetry guard, so the
#    application reads no clock of its own and the phase-timer map stays
#    deleted; the
#    rank layer assembles no Jacobian of its own, no kernel has a second
#    path nothing runs (tile staging, the barrier-per-level TRSV), the
#    execution, flux-scheme and spin knobs, the serve cache switch and
#    the flight dump prefix stay deleted, crates/bench/src/bin holds the
#    figure and table binaries and nothing else, set-up (the mesh
#    passes, coarsening, the rank decomposition) groups by vertex id
#    rather than through a hash map, the paper's "before" kernels and
#    cost models stay in crates/bench, the single-value knobs stay
#    deleted, a production crate's modules are private but for eight
#    that benchmark/ names, and no production code allows dead code or
#    an unreachable `pub`. Each structural guard is negative-tested on
#    canary trees.
#  * warnings are errors: `cargo check --workspace --all-targets` with
#    `-D warnings`, and the same for the model-checked crates under
#    `--cfg fun3d_check`, each in its own target dir.
#  * the benchmark's self-tests: `benchmark/` (a package of its own)
#    compiles against the production crates' public surface, so a change
#    to a crate's exports cannot break its tests unseen.
#  * `cargo build --release` and `cargo test -q`, offline. The root
#    manifest's default-members make both cover every crate (the flight
#    dumps, the metrics socket and the serve wire are tests there).
#  * model check of the sync substrate: the fun3d-check suite plus the
#    protocol models compiled under `--cfg fun3d_check`, under a fixed
#    schedule budget; a deliberately racy canary must fail the suite.
#  * perf_report on the tiny mesh: every telemetry artifact parses, and
#    no span was lost to ring wraparound (the span profile is exact).
#  * sync_ablation on the benchmark mesh: bitwise mode equivalence, the
#    regions-per-iteration claim, and the speedup-vs-threads rule on the
#    rows that fit this host's cores.
#  * SIMD flux kernel speed floor (fig6a --check): packed code, rows
#    stored the way the loop loads them.
#  * recurrence gates (fig7a --check): in-place ILU floor, factor-storage
#    floor, P2P schedule bound and canary, measured P2P at T=2.
#  * serve tier and serve stats command: the NDJSON stdin smoke and the
#    in-band stats reply.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== guard: manifests must contain only path dependencies =="
fail=0
for m in Cargo.toml crates/*/Cargo.toml; do
    # Scan only *dependencies sections; flag entries that neither point at
    # a path nor defer to the (path-only) workspace dependency table.
    bad=$(awk '
        /^\[/ { sect = $0 }
        sect ~ /dependencies/ && !/^\[/ && /=/ && !/^[[:space:]]*#/ {
            if ($0 !~ /path[[:space:]]*=/ && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/)
                print "  " FILENAME ": " $0
        }' "$m")
    if [ -n "$bad" ]; then
        echo "non-path dependency in $m:"
        echo "$bad"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "FAIL: external dependencies are not allowed (offline build)"
    exit 1
fi
echo "ok: all dependencies are workspace-path crates"

echo "== guard: one Krylov control flow, one edge-loop driver, no edge kernel or Jacobian loop in the rank layer, one path per kernel, one ledger, one factor format, one gradient layout and kernel, argued unchecked access, one telemetry gate and recorder, one clock per kernel, no deleted knob or switch, one bench binary per figure, hash-free set-up, bench-only code in crates/bench, no single-value knob, private modules but eight, no allowed dead code =="
# The rank layer solves through fun3d_solver and computes through
# fun3d_core; a copy of either creeping back in fails here, before cargo
# runs. The argument is the root of the tree to check, so the guard can be
# negative-tested on canary trees below.
# benchmark/ is the one ledger: the history stack it replaced is named on
# the next line and nowhere else under crates/ or scripts/.
OLD_LEDGER='perfdb\|perf_regress\|FUN3D_PERF_GATE'
# Telemetry's one gate replaced these seven variables, without aliases.
OLD_KNOBS='\bFUN3D_(FLIGHT|METRICS|TELEMETRY_RING|FLIGHT_RING|SAMPLER_US|FLIGHT_PREFIX|ROOFLINE_TOL)\b'
# Knobs no workload or gate read, deleted without aliases: FUN3D_PIN is
# the one threading knob left.
UNREAD_KNOBS='\bFUN3D_(EXEC|FLUX|ADAPTIVE_SPIN)\b'
# Second paths of a kernel that no host selected, deleted.
DEAD_PATHS='TileExec|solve_levels|sweep_levels_team|IluApply::Levels|with_levels'
# Switches only deleted bench binaries set: a capacity of 0 disables a
# serve cache layer, and a flight dump is always flight.<trigger>.
REMOVED_SWITCHES='\bFUN3D_SERVE_CACHE\b|\bset_dump_prefix\b'
# One binary per paper figure or table, the sync ablation and the
# telemetry report: what benchmark/ or a test already covers is not a bin.
BENCH_BINS='fig5_profile fig6a_flux_opts fig6b_flux_scaling fig7a_recurrence_opts fig7b_recurrence_bw
    fig8a_app_speedup fig8b_kernel_speedups fig9_multinode_scaling fig10_comm_overheads fig11_hybrid
    table1_baseline table2_ilu_fill sync_ablation perf_report'
TRAVERSAL='pool\.run\(|SpinBarrier|chunk_range|color_tiles'
# Set-up runs in time linear in the mesh: these files group by vertex id
# (counting sort, marker rows, dense maps), never through a hash map. The
# reference implementations their test modules keep may hash.
SETUP_FILES='crates/mesh/src/lib.rs crates/mesh/src/generator.rs crates/mesh/src/dual.rs
    crates/partition/src/multilevel.rs crates/cluster/src/decompose.rs'
# Production crates hold what production runs: the paper's "before"
# kernels, the scalar CSR, Table II's DAG metric, the Fig. 6/7/9-11 cost
# models and the hard-clip limiter are crates/bench's, or gone.
BENCH_ONLY='serial_soa|NodeSoa|fn atomics|struct Csr\b|DagStats|EdgeLoopCosts|RecurrenceCosts|NetworkSpec|simulate_point|apply_barth_jespersen'
# Knobs no caller set to a second value, deleted without aliases: P2P runs
# exactly when there is a pool, the pool's plan is always multilevel, and
# a pseudo-time step is one Newton iteration.
SINGLE_VALUE_KNOBS='IluParallel|metis_partition|newton_per_step'
# A production crate's public surface is its lib.rs: its modules are
# private, save the eight whose paths benchmark/ names (it is frozen), so
# `unreachable_pub` and `dead_code` see every item. `parent:module` pairs.
PUB_MODS='solver:ptc solver:precond mesh:generator util:telemetry telemetry:metrics sparse:ilu cluster:dapp core:counts'
PRODUCTION_CRATES='util simd threads mesh partition sparse solver machine core cluster serve'
structure_guard() {
    local root=$1 bad=0
    if grep -rn 'roe_flux' "$root/crates/cluster/src"; then
        echo "  crates/cluster/src calls the Roe flux: use fun3d_core::flux_run on the rank's Owner share"
        bad=1
    fi
    # How edges are walked - regions, barriers, chunking, colour classes -
    # is crates/core/src/edge_loop.rs and nothing else; the rank layer
    # calls it.
    if grep -rnE "$TRAVERSAL" "$root/crates/core/src" "$root/crates/cluster/src" --exclude=edge_loop.rs; then
        echo "  traversal control flow outside crates/core/src/edge_loop.rs: add a Traversal there, not a loop here"
        bad=1
    fi
    if grep -rniE 'givens|\bsn\[' "$root/crates/cluster/src"; then
        echo "  crates/cluster/src holds a Givens rotation: solve through fun3d_solver::Gmres"
        bad=1
    fi
    local defs
    defs=$(grep -rn 'fn givens' "$root/crates" --include='*.rs' | wc -l)
    if [ "$defs" -ne 1 ]; then
        echo "  $defs definitions of 'fn givens' under crates/ (want exactly one, in solver/src/gmres.rs)"
        bad=1
    fi
    if grep -rn "$OLD_LEDGER" "$root/crates" "$root/scripts" --exclude=verify.sh; then
        echo "  a second performance ledger: record and judge numbers through benchmark/ only"
        bad=1
    fi
    # The factors have one storage format - column-major f32 blocks, the
    # way the sweeps load them - touched in one place: the widening load
    # and the block-vector product are crates/sparse/src/block.rs, the
    # forward and the backward row are written once (trsv.rs, the only
    # caller of that product), the type takes no parameter, and nothing
    # outside crates/bench (Fig. 7a's reference rows) keeps factor values
    # as f64.
    local sparse="$root/crates/sparse/src"
    if grep -rl 'load_f32' "$sparse" | grep -v '/block\.rs$'; then
        echo "  the widening block load outside crates/sparse/src/block.rs"
        bad=1
    fi
    if grep -rl 'factor_matvec' "$sparse" | grep -v '/block\.rs$\|/trsv\.rs$'; then
        echo "  the sweeps' block-vector product is called outside crates/sparse/src/trsv.rs: run rows through trsv::run_rows"
        bad=1
    fi
    for row in forward_row backward_row; do
        defs=$(grep -rn "fn $row" "$sparse" | wc -l)
        if [ "$defs" -ne 1 ]; then
            echo "  $defs definitions of 'fn $row' under crates/sparse/src (want exactly one, in trsv.rs)"
            bad=1
        fi
    done
    if grep -rnE 'IluFactors *<' "$root/crates" --include='*.rs'; then
        echo "  IluFactors takes a parameter: one representation, no precision or layout knob"
        bad=1
    fi
    if grep -rnE '(dinv|blocks): *(Vec<f64>|\*mut f64)' "$sparse/ilu.rs" \
        || grep -rnE 'dinv: *(Vec<f64>|\*mut f64)' "$root/crates" --include='*.rs' --exclude-dir=bench; then
        echo "  factor values kept as f64 outside crates/bench: the factors are stored as f32 (fun3d_sparse::FactorBlock)"
        bad=1
    fi
    # A vertex row is stored the way its hot loop loads it, and that is
    # said once: the dim-major gradient index is spelled in one file
    # (crates/core/src/geom.rs, `grad_slot`); everything else, the rank
    # layer and the benches included, goes through it.
    local layout
    layout=$(grep -rlE 'd \* 4 \+ c\b' "$root"/crates/*/src --include='*.rs' | wc -l)
    if [ "$layout" -ne 1 ]; then
        echo "  the gradient row layout (d * 4 + c) is spelled in $layout files of crates/*/src (want exactly one, core/src/geom.rs)"
        bad=1
    fi
    # Green-Gauss is one owner-computes vertex loop: not a body of the
    # edge-loop driver again, and with no tiled variant to model.
    if grep -rnE 'impl *EdgeBody *for *(Green|Grad|Lsq)' "$root/crates" --include='*.rs' \
        || grep -rn 'gradient_tiled' "$root/crates" --include='*.rs'; then
        echo "  the gradient as an edge body or with a tiled model: it is gradient::green_gauss, one vertex loop"
        bad=1
    fi
    # An index is checked where it is made: unchecked access in the core
    # lives in the four files that hold the validated structures and the
    # loops over them, each use within five lines below a SAFETY: comment.
    local core="$root/crates/core/src" f
    if grep -rlE 'get_unchecked|from_raw_parts' "$core" \
        | grep -vE '/(edge_loop|flux|gradient|geom)\.rs$'; then
        echo "  unchecked access in crates/core/src outside edge_loop.rs, flux.rs, gradient.rs, geom.rs"
        bad=1
    fi
    for f in $(grep -rlE 'get_unchecked|from_raw_parts' "$core"); do
        if ! awk '/SAFETY:/ { argued = NR }
            /get_unchecked|from_raw_parts/ && !(argued && NR - argued <= 5) {
                print "  " FILENAME ":" NR ": unchecked access with no SAFETY: in the five lines above it"; bad = 1 }
            END { exit bad }' "$f"; then
            bad=1
        fi
    done
    # Telemetry has one gate, one recorder per thread behind one
    # thread-local, and one ring type: it reads FUN3D_TELEMETRY and the two
    # dump variables and no other, the knobs the gate replaced are gone
    # from the code and the docs, and the sampler and the flight-only ring
    # do not come back.
    local telemetry="$root/crates/util/src/telemetry"
    if grep -rnoE 'env::var\("FUN3D_[A-Z_]*"' "$telemetry" \
        | grep -vE '"FUN3D_(TELEMETRY|FLIGHT_DIR|FLIGHT_DUMP)"$'; then
        echo "  a FUN3D_* variable read under crates/util/src/telemetry beyond FUN3D_TELEMETRY, FUN3D_FLIGHT_DIR, FUN3D_FLIGHT_DUMP: use the level"
        bad=1
    fi
    if grep -rnE "$OLD_KNOBS" "$root/crates" "$root/scripts" "$root/README.md" "$root/DESIGN.md" --exclude=verify.sh; then
        echo "  a telemetry knob the one gate replaced is named again"
        bad=1
    fi
    local tls
    tls=$(awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 }
        !test && /^[[:space:]]*thread_local!/ { n++ } END { print n + 0 }' "$telemetry"/*.rs)
    if [ "$tls" -ne 1 ]; then
        echo "  $tls thread_local! outside tests under crates/util/src/telemetry (want exactly one, the recorder's)"
        bad=1
    fi
    if grep -rnwE 'SpanSlot|Sampler|FlightRing' "$root/crates" "$root/scripts" "$root/README.md" "$root/DESIGN.md" --exclude=verify.sh; then
        echo "  a sampler slot, a sampler or a second ring type: spans and flight events share ring::Ring"
        bad=1
    fi
    # One clock per kernel: a kernel call opens telemetry::kernel, whose
    # counters carry the call's time beside its traffic; the application
    # reads no clock of its own and no phase-timer map comes back.
    local app="$root/crates/core/src/app.rs"
    if { [ -e "$app" ] && grep -nE 'PhaseTimers|timers\.borrow_mut|Instant::now' "$app"; } \
        || grep -rnw 'PhaseTimers' "$root/crates" "$root/README.md" "$root/DESIGN.md"; then
        echo "  a second kernel clock: time a kernel call with telemetry::kernel, whose KernelCounts carry its ns"
        bad=1
    fi
    # One path per kernel: a rank assembles its Jacobian through
    # fun3d_core::jacobian over its local edges, not with a loop of its own
    # or a block search per entry; tiles are walked direct only and the
    # triangular solves run serial or P2P; and the knobs nothing read stay
    # gone from the code and the docs.
    if grep -rnE 'flux_jacobian|spectral_radius|add_block\(' "$root/crates/cluster/src"; then
        echo "  crates/cluster/src assembles a Jacobian itself: call jacobian::assemble with the rank's JacobianSlots"
        bad=1
    fi
    if grep -rnE "$DEAD_PATHS" "$root/crates"; then
        echo "  a deleted second kernel path (tile staging, the barrier-per-level TRSV) is back under crates/"
        bad=1
    fi
    if grep -rnE "$UNREAD_KNOBS" "$root/crates" "$root/scripts" "$root/README.md" "$root/DESIGN.md" --exclude=verify.sh; then
        echo "  a deleted knob (FUN3D_EXEC, FUN3D_FLUX, FUN3D_ADAPTIVE_SPIN) is read or named again"
        bad=1
    fi
    if grep -rnE "$REMOVED_SWITCHES" "$root/crates" "$root/scripts" "$root/README.md" "$root/DESIGN.md" --exclude=verify.sh; then
        echo "  the serve cache switch or the flight dump prefix is back: size a cache layer to 0, dumps are flight.<trigger>"
        bad=1
    fi
    local bin
    for bin in "$root"/crates/bench/src/bin/*.rs; do
        [ -e "$bin" ] || continue
        if ! grep -qw "$(basename "$bin" .rs)" <<<"$BENCH_BINS"; then
            echo "  $bin: crates/bench/src/bin holds one binary per paper figure or table (plus sync_ablation, perf_report)"
            bad=1
        fi
    done
    for f in $SETUP_FILES; do
        [ -e "$root/$f" ] || continue
        if awk '/#\[cfg\(test\)\]/ { exit } /HashMap/ { print "  " FILENAME ":" NR ": " $0; found = 1 }
            END { exit !found }' "$root/$f"; then
            echo "  a HashMap in set-up code ($f): group by vertex id (counting sort, a marker row, a dense map)"
            bad=1
        fi
    done
    local src
    for src in "$root"/crates/*/src; do
        [ "$src" = "$root/crates/bench/src" ] && continue
        if grep -rnE "$BENCH_ONLY" "$src"; then
            echo "  a paper-figure reference kernel, cost model or the hard-clip limiter under $src: it lives in crates/bench"
            bad=1
        fi
    done
    if grep -rnE "$SINGLE_VALUE_KNOBS" "$root/crates" "$root/README.md" "$root/DESIGN.md"; then
        echo "  a deleted single-value knob (IluParallel, metis_partition, newton_per_step) is back"
        bad=1
    fi
    local krate lib parent line mod
    for krate in $PRODUCTION_CRATES; do
        [ -d "$root/crates/$krate/src" ] || continue
        for lib in "$root/crates/$krate/src/lib.rs" "$root/crates/$krate/src/telemetry/mod.rs"; do
            [ -e "$lib" ] || continue
            parent=$krate
            [ "$(basename "$lib")" = mod.rs ] && parent=telemetry
            while IFS= read -r line; do
                mod=$(sed -E 's/^[[:space:]]*pub mod ([a-z_0-9]+).*/\1/' <<<"$line")
                if ! grep -qw "$parent:$mod" <<<"$PUB_MODS"; then
                    echo "  $lib: pub mod $mod: keep the module private and re-export what callers name from lib.rs"
                    bad=1
                fi
            done < <(grep -E '^[[:space:]]*pub mod [a-z_0-9]+' "$lib")
        done
        if grep -rnE 'allow\((.*[, ])?(dead_code|unreachable_pub)\b' "$root/crates/$krate/src" \
            | grep -v 'crates/threads/src/pool.rs:.*cfg_attr(fun3d_check, allow(dead_code))'; then
            echo "  allow(dead_code) or allow(unreachable_pub) in crates/$krate/src: delete the item, move it to crates/bench or make it #[cfg(test)]"
            bad=1
        fi
    done
    return $bad
}
if ! structure_guard .; then
    echo "FAIL: a second Krylov loop, edge loop, edge kernel, Jacobian assembly, kernel path, performance ledger, factor format, gradient layout, telemetry gate, recorder or kernel clock has been forked, a deleted knob or switch is back, a bench binary is not a paper figure, an unchecked access is not argued, set-up hashes, a bench-only kernel or model is in a production crate, a production module is public beyond the eight, or dead code is allowed"
    exit 1
fi
# Negative canaries: each of the thirty forks must trip the guard, and
# the tree they are planted in must pass without them.
CANARY=target/verify_guard
for fork in none roe_flux rotation second_givens second_ledger second_edge_loop rank_edge_loop \
    widening_load_in_a_sweep second_forward_row generic_factors f64_factors \
    second_gradient_layout gradient_edge_body tiled_gradient_model unchecked_elsewhere unargued_unchecked \
    telemetry_knob_read deleted_knob_named second_thread_local sampler_back second_kernel_clock \
    rank_jacobian_loop dead_kernel_path unread_knob_back extra_bench_bin serve_cache_knob setup_hash_map \
    bench_only_in_production single_value_knob_back pub_mod_back dead_code_allowed; do
    rm -rf "$CANARY"
    mkdir -p "$CANARY/crates/cluster/src" "$CANARY/crates/solver/src" "$CANARY/crates/core/src" \
        "$CANARY/crates/sparse/src" "$CANARY/crates/bench/src/bin" "$CANARY/scripts" \
        "$CANARY/crates/util/src/telemetry" "$CANARY/crates/serve/src" "$CANARY/crates/mesh/src"
    echo 'fn main() { fun3d_bench::emit("table2_ilu_fill", &table) }' > "$CANARY/crates/bench/src/bin/table2_ilu_fill.rs"
    echo 'factor_cache_cap: 32,' > "$CANARY/crates/serve/src/service.rs"
    printf 'let mut by_min = Buckets::new(n, faces);\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n' \
        > "$CANARY/crates/mesh/src/generator.rs"
    echo 'for class in &tiling.color_tiles { pool.run(|tid| chunk_range(class.len(), nt, tid)); }' > "$CANARY/crates/core/src/edge_loop.rs"
    echo 'fn givens(a: f64, b: f64) -> (f64, f64) { (a, b) }' > "$CANARY/crates/solver/src/gmres.rs"
    echo 'pub fn factor_matvec<S: Simd>(s: S, a: &FactorBlock) -> S::V { s.load_f32(&a[0..4]) }' > "$CANARY/crates/sparse/src/block.rs"
    printf 'unsafe fn forward_row() { block::factor_matvec(s, a) }\nunsafe fn backward_row() {}\n' > "$CANARY/crates/sparse/src/trsv.rs"
    printf 'pub struct IluFactors {\n    pub dinv: Vec<f32>,\n}\n' > "$CANARY/crates/sparse/src/ilu.rs"
    echo 'struct F64Factors { dinv: Vec<f64> }' > "$CANARY/crates/bench/src/trsv_reference.rs"
    echo 'pub fn serial_soa(geom: &EdgeGeom, node: &NodeSoa, beta: f64, res: &mut [f64]) {}' \
        > "$CANARY/crates/bench/src/flux_reference.rs"
    printf 'pub const fn grad_slot(c: usize, d: usize) -> usize {\n    d * 4 + c\n}\n// SAFETY: in bounds by the caller.\nunsafe { std::slice::from_raw_parts_mut(p, w) }\n' > "$CANARY/crates/core/src/geom.rs"
    printf 'thread_local! {\n    static LOCAL: Local = const { Local::new() };\n}\nlet l = std::env::var("FUN3D_TELEMETRY");\n#[cfg(test)]\nmod tests {\n    thread_local! { static N: u8 = 0; }\n}\n' \
        > "$CANARY/crates/util/src/telemetry/mod.rs"
    echo 'Dumps land in `FUN3D_FLIGHT_DIR`; `FUN3D_FLIGHT_DUMP=1` asks for one at every solve end.' > "$CANARY/README.md"
    echo '| `crates/util` | one recorder per thread, one ring type |' > "$CANARY/DESIGN.md"
    printf '#![deny(unreachable_pub)]\n\nmod gmres;\npub mod precond;\npub mod ptc;\n' > "$CANARY/crates/solver/src/lib.rs"
    printf 'mod counters;\npub mod metrics;\n' >> "$CANARY/crates/util/src/telemetry/mod.rs"
    mkdir -p "$CANARY/crates/threads/src"
    printf '    #[cfg_attr(fun3d_check, allow(dead_code))]\n    adaptive: bool,\n' > "$CANARY/crates/threads/src/pool.rs"
    case $fork in
        none)
            if ! structure_guard "$CANARY"; then
                echo "FAIL: the structure guard rejects its own canary tree before any fork is planted"
                exit 1
            fi
            continue ;;
        widening_load_in_a_sweep) echo 'let col = Portable.load_f32(&f.l.block(k)[0..4]);' > "$CANARY/crates/sparse/src/levels.rs" ;;
        second_forward_row) echo 'unsafe fn forward_row() { block::factor_matvec(s, a) }' > "$CANARY/crates/sparse/src/p2p.rs" ;;
        generic_factors) echo 'pub struct IluFactors<T> { pub dinv: Vec<T> }' > "$CANARY/crates/sparse/src/ilu.rs" ;;
        f64_factors) echo 'struct Factors { dinv: Vec<f64> }' > "$CANARY/crates/solver/src/fork.rs" ;;
        roe_flux) echo 'let f = euler::roe_flux(&ql, &qr, &n, beta);' > "$CANARY/crates/cluster/src/fork.rs" ;;
        rotation) echo 'let t = cs[i] * col[i] + sn[i] * col[i + 1];' > "$CANARY/crates/cluster/src/fork.rs" ;;
        second_givens) echo 'fn givens(a: f64, b: f64) -> (f64, f64) { (b, a) }' > "$CANARY/crates/solver/src/fork.rs" ;;
        second_ledger) echo "# judged by: $OLD_LEDGER" > "$CANARY/scripts/snapshot.sh" ;;
        second_edge_loop) echo 'pool.run(|tid| tile_flux(&tiling.tiles[tid]));' > "$CANARY/crates/core/src/flux.rs" ;;
        rank_edge_loop) echo 'for &t in &class[chunk_range(class.len(), nt, tid)] {}' > "$CANARY/crates/cluster/src/fork.rs" ;;
        second_gradient_layout) echo 'let g = node.grad[v * 12 + d * 4 + c];' > "$CANARY/crates/cluster/src/fork.rs" ;;
        gradient_edge_body) echo 'impl EdgeBody for GreenGauss {}' > "$CANARY/crates/core/src/gradient.rs" ;;
        tiled_gradient_model) echo 'pub fn gradient_tiled(ne: usize) {}' > "$CANARY/crates/core/src/counts.rs" ;;
        unchecked_elsewhere) printf '// SAFETY: trust me.\nlet x = unsafe { *v.get_unchecked(i) };\n' > "$CANARY/crates/core/src/limiter.rs" ;;
        unargued_unchecked) echo 'let x = unsafe { *v.get_unchecked(i) };' > "$CANARY/crates/core/src/flux.rs" ;;
        telemetry_knob_read) echo 'let cap = std::env::var("FUN3D_OBS_RING");' > "$CANARY/crates/util/src/telemetry/ring.rs" ;;
        deleted_knob_named) echo 'Set `FUN3D_FLIGHT=off` to stop recording.' >> "$CANARY/README.md" ;;
        second_thread_local) printf 'thread_local! {\n    static SHARDS: u8 = 0;\n}\n' > "$CANARY/crates/util/src/telemetry/metrics.rs" ;;
        sampler_back) echo 'pub struct SpanSlot { seq: AtomicU64 }' > "$CANARY/crates/util/src/telemetry/profile.rs" ;;
        second_kernel_clock) echo 'let t = std::time::Instant::now();' > "$CANARY/crates/core/src/app.rs" ;;
        rank_jacobian_loop) echo 'self.jac.add_block(b, a as u32, &da);' > "$CANARY/crates/cluster/src/fork.rs" ;;
        dead_kernel_path) echo 'Traversal::Tiled { geom, mode: TileExec::Staged }' > "$CANARY/crates/core/src/flux.rs" ;;
        unread_knob_back) echo 'Override with `FUN3D_EXEC=serial|team|auto`.' >> "$CANARY/README.md" ;;
        extra_bench_bin) echo 'fn main() { run_ablation(&parse_args()) }' > "$CANARY/crates/bench/src/bin/load_gen.rs" ;;
        serve_cache_knob) echo 'cache: !matches!(std::env::var("FUN3D_SERVE_CACHE").as_deref(), Ok("off")),' >> "$CANARY/crates/serve/src/service.rs" ;;
        setup_hash_map) echo 'let mut g2l = std::collections::HashMap::with_capacity(owned.len());' > "$CANARY/crates/cluster/src/decompose.rs" ;;
        bench_only_in_production) echo 'pub struct Csr { pub values: Vec<f64> }' > "$CANARY/crates/sparse/src/csr.rs" ;;
        single_value_knob_back) echo '    ilu_parallel: if nthreads > 1 { IluParallel::P2p } else { IluParallel::Serial },' > "$CANARY/crates/core/src/app.rs" ;;
        pub_mod_back) echo 'pub mod gmres;' >> "$CANARY/crates/solver/src/lib.rs" ;;
        dead_code_allowed) printf '#[allow(dead_code)]\nfn unused() {}\n' > "$CANARY/crates/threads/src/team.rs" ;;
    esac
    if structure_guard "$CANARY" >/dev/null; then
        echo "FAIL: the structure guard accepted a forked $fork"
        exit 1
    fi
done
rm -rf "$CANARY"
echo "ok: one fn givens, one edge-loop driver, no Roe flux, rotation, edge loop or Jacobian loop in crates/cluster/src, one path per kernel, one ledger, one factor format and one row kernel, one gradient layout and kernel, unchecked access argued in four files, one telemetry gate, thread-local and ring, one clock per kernel, no deleted knob or switch, one bench binary per figure, hash-free set-up, bench-only kernels and models in crates/bench, no single-value knob, private modules but eight, no dead code allowed; canaries rejected"

# Warnings are errors, on every target of the workspace and on the
# model-checked crates under their cfg. Own target dirs: the flags change
# every crate's fingerprint, and the release cache below must survive.
echo "== cargo check -D warnings: the workspace, all targets =="
RUSTFLAGS="-D warnings" CARGO_TARGET_DIR=target/lint \
    cargo check --workspace --all-targets --offline
echo "== cargo check -D warnings: fun3d-check, fun3d-threads, fun3d-util under --cfg fun3d_check =="
RUSTFLAGS="--cfg fun3d_check -D warnings" CARGO_TARGET_DIR=target/lint-check \
    cargo check --offline --all-targets -p fun3d-check -p fun3d-threads -p fun3d-util

# The benchmark is its own package with its own lock file, which cargo
# rewrites when a path dependency's manifest changed; the committed one
# is put back whatever the outcome.
echo "== benchmark self-tests (cargo test --manifest-path benchmark/Cargo.toml) =="
BENCH_LOCK=$(mktemp)
cp benchmark/Cargo.lock "$BENCH_LOCK"
bench_status=0
cargo test -q --offline --manifest-path benchmark/Cargo.toml || bench_status=$?
cp "$BENCH_LOCK" benchmark/Cargo.lock
rm -f "$BENCH_LOCK"
if [ "$bench_status" -ne 0 ]; then
    echo "FAIL: the benchmark's self-tests"
    exit 1
fi

# default-members in the root manifest make both commands cover every
# crate of the workspace, not only the root package.
echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline =="
cargo test -q --offline

echo "== model check: fun3d-check self-tests =="
# Fixed schedule budget so the exhaustive searches are deterministic in
# both coverage and runtime, regardless of environment defaults.
export FUN3D_CHECK_BUDGET=400000
cargo test -q --offline -p fun3d-check

echo "== model check: sync-substrate protocols (--cfg fun3d_check) =="
# Separate target dir: the cfg changes the shim types workspace-wide, so
# sharing ./target would thrash the normal build's incremental state.
RUSTFLAGS="--cfg fun3d_check" CARGO_TARGET_DIR=target/check \
    cargo test -q --offline -p fun3d-check -p fun3d-threads -p fun3d-util

echo "== model check: negative canary (a race MUST fail the suite) =="
# Same idiom as the dependency guard above: prove the checker actually
# turns races into failures by running a deliberately racy model and
# requiring a nonzero exit.
if cargo test -q --offline -p fun3d-check --test checker -- \
    --ignored canary_unchecked_race_fails_the_suite >/dev/null 2>&1; then
    echo "FAIL: the racy canary model passed — the checker is not detecting races"
    exit 1
fi
echo "ok: model checker catches the canary race"

echo "== perf_report on the tiny mesh (telemetry + span profile artifacts) =="
# Run the telemetry report end to end at full span detail, then prove
# every artifact is machine-readable with the binary's own strict parsers
# (--check): the JSON summary (including the measured-vs-model roofline
# table; on the tiny mesh it also fails if any span was lost to ring
# wraparound, since the span profile is exact only without losses), the
# Chrome trace, and the span profile as folded flamegraph text and as
# speedscope JSON.
cargo run --release --offline -q -p fun3d-bench --bin perf_report -- --mesh tiny --threads 2
for artifact in target/experiments/perf_report.json \
                target/experiments/perf_report.trace.json \
                target/experiments/perf_report.folded \
                target/experiments/perf_report.speedscope.json; do
    if [ ! -f "$artifact" ]; then
        echo "FAIL: missing telemetry artifact $artifact"
        exit 1
    fi
    cargo run --release --offline -q -p fun3d-bench --bin perf_report -- --check "$artifact"
done
echo "ok: telemetry artifacts present and parsable"

echo "== sync_ablation on the benchmark mesh (execution-policy ablation, thread-scaling rule) =="
# Serial / persistent-region / adaptive GMRES, plus the region-per-op
# reference, over the P2P preconditioner the application runs, measured
# in interleaved rounds: the run itself asserts per-op and team are
# bitwise identical and that auto matches whatever scheme it selected;
# --check validates the artifact, the structural claim (regions/iteration
# collapses to ~1 in team mode) and the speedup-vs-threads rule: above
# the modeled crossover threads>1 must beat serial, judged on the rows
# whose thread count fits this host's cores. Small is the mesh every
# threaded benchmark workload runs; Tiny sits above the modeled crossover
# and is truly slower on two threads (ROADMAP item 1), so it is left to
# callers who pass it.
cargo run --release --offline -q -p fun3d-bench --bin sync_ablation -- \
    --meshes small --reps 5
if [ ! -f target/experiments/sync_ablation.json ]; then
    echo "FAIL: missing sync ablation artifact"
    exit 1
fi
cargo run --release --offline -q -p fun3d-bench --bin sync_ablation -- --check target/experiments/sync_ablation.json
echo "ok: sync ablation modes agree bitwise; threads beat serial where the cores exist"

echo "== SIMD flux kernel speed floor (fig6a_flux_opts --check) =="
# The vectorized flux kernel is only worth its name while it compiles
# to packed code: with AVX2 detected, the lane body on the stream - the
# generic driver inlined into its AVX2 entry - must be at least 1.3x both
# the scalar serial_aos and its own portable-lane instantiation, and at
# least 1.10x the lane body on comp-major gradient rows with checked
# gathers kept in crates/bench as the reference (interleaved rounds,
# per-variant minimum): eight transposes per
# batch, spilled gradient lanes or a bounds check per access coming back
# fail here. Without AVX2 the check passes with a notice.
cargo run --release --offline -q -p fun3d-bench --bin fig6a_flux_opts -- \
    --mesh small --reps 20 --check
echo "ok: SIMD flux kernel clears its speed floors (or runs on portable lanes)"

echo "== recurrence gates: symbolic-once ILU floor, P2P schedule bound (fig7a_recurrence_opts --check) =="
# Refactoring in place on a structure built once must be at least 2x the
# full-buffer reference, which rebuilds the structure, searches A and
# allocates the factors on every call (same interleaved-rounds,
# per-variant-minimum measurement as the gate above): a numeric core
# that searches or allocates per factorization again fails here.
# The same run holds the P2P schedule to what it is for: at two threads
# total work / makespan must be >= 1.5 on both sweeps (a property of the
# schedule, so gated on every host), the contiguous row assignment the
# schedule once used must trip that same test (negative canary, built
# inside the binary), the production serial application must be at least
# 1.25x the row-major f64 reference kept in crates/bench (the factors are
# stored the way the sweeps load them, in single precision), and - only
# where nproc >= 2, as every thread-scaling key - the measured P2P
# application at T=2 must not be slower than the serial sweep.
cargo run --release --offline -q -p fun3d-bench --bin fig7a_recurrence_opts -- \
    --mesh small --reps 20 --check
echo "ok: in-place numeric ILU and the factor storage clear their floors; the P2P schedule runs in parallel and its canary is caught"

echo "== serve tier (fun3d-serve NDJSON smoke) =="
# Service smoke over the NDJSON stdin transport: two good requests (the
# second must be an artifact-cache hit) and one malformed request that
# must come back as a structured bad_request rejection, not a crash.
SERVE_OUT=$(printf '%s\n' \
    '{"tenant":"verify","mesh":"tiny","max_steps":2,"rtol":1e-2}' \
    '{"tenant":"verify","mesh":"tiny","max_steps":2,"rtol":1e-2}' \
    '{"tenant":"verify","mesh":"not-a-mesh"}' \
    | cargo run --release --offline -q -p fun3d-serve --bin serve -- --teams 1 --team-threads 1 2>/dev/null)
for needle in '"ok":true' '"cache":"app+factor"' '"reason":"bad_request"'; do
    if ! grep -qF "$needle" <<<"$SERVE_OUT"; then
        echo "FAIL: serve stdin smoke missing $needle"
        echo "$SERVE_OUT"
        exit 1
    fi
done
echo "ok: serve NDJSON transport answers, caches repeats, rejects bad requests"

echo "== serve stats command =="
# In-band stats: a solve followed by {"cmd":"stats"} must answer one
# stats line carrying the metrics snapshot. The one-shot pipe races stats
# against the solve, so this smoke checks structure only; the live
# per-tenant percentiles are service::tests::stats_json_reports_live_tenant_percentiles,
# and the --metrics-socket endpoint is crates/serve/tests/metrics_socket.rs
# (both expositions validated, a corrupted snapshot rejected), both tier-1.
STATS_OUT=$(printf '%s\n' \
    '{"tenant":"verify","mesh":"tiny","max_steps":2,"rtol":1e-2}' \
    '{"cmd":"stats"}' \
    | cargo run --release --offline -q -p fun3d-serve --bin serve -- --teams 1 --team-threads 1 2>/dev/null)
for needle in '"kind":"stats"' '"schema":"fun3d.metrics.v1"'; do
    if ! grep -qF "$needle" <<<"$STATS_OUT"; then
        echo "FAIL: stats reply missing $needle"
        echo "$STATS_OUT"
        exit 1
    fi
done
echo "ok: the stats command answers with the metrics snapshot"

echo "verify: OK"
