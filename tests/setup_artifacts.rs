//! Every artifact of set-up, pinned bit for bit.
//!
//! Set-up — mesh generation, RCM, the median dual, the matrix and ILU
//! patterns, the partitioner and the rank decomposition — is rewritten
//! for speed from time to time, and none of those rewrites may change
//! what it produces: the solve downstream depends on every bit of it
//! (edge order, summation order of the dual metrics, which vertex lands
//! in which part). Each artifact is folded into an FNV-1a hash on two
//! meshes, Tiny and the benchmark's 21 × 13 × 13 channel, and compared
//! with the values the straightforward implementations (comparison sort,
//! hash maps, one `Vec` per row) produced. The converged Tiny solves at
//! T = 1 and T = 2 are pinned too, so a set-up change that moved
//! anything the tests above miss still shows.

use fun3d_cluster::Decomposition;
use fun3d_core::{FlowConditions, Fun3dApp, OptConfig};
use fun3d_mesh::{generator::MeshPreset, rcm, ChannelSpec, DualMesh, Mesh};
use fun3d_partition::{partition_graph, MultilevelConfig};
use fun3d_solver::ptc::PtcConfig;
use fun3d_solver::ExecMode;
use fun3d_sparse::{ilu, Bcsr4};
use fun3d_util::{fnv1a, fnv1a_word};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(fnv1a(&[]))
    }

    fn word(&mut self, w: u64) -> &mut Fnv {
        self.0 = fnv1a_word(self.0, w);
        self
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) -> &mut Fnv {
        let mut n = 0u64;
        for w in ws {
            self.word(w);
            n += 1;
        }
        // The length closes the sequence, so adjacent lists cannot trade
        // elements without changing the hash.
        self.word(n)
    }

    fn rows(&mut self, rows: &[Vec<u32>]) -> &mut Fnv {
        for r in rows {
            self.words(r.iter().map(|&c| c as u64));
        }
        self.word(rows.len() as u64)
    }
}

fn edges_hash(edges: &[[u32; 2]]) -> u64 {
    Fnv::new().words(edges.iter().map(|e| (e[0] as u64) << 32 | e[1] as u64)).0
}

/// The pinned hashes of one mesh, in the order [`artifacts`] computes them.
struct Pins {
    edges: u64,
    boundary: u64,
    rcm: u64,
    dual: u64,
    iluk1: u64,
    bcsr: u64,
    part2: u64,
    part4: u64,
    decomp2: u64,
}

fn artifacts(spec: ChannelSpec) -> [(&'static str, u64); 9] {
    let mut mesh: Mesh = spec.build();
    let edges = edges_hash(&mesh.edges());
    let boundary = Fnv::new()
        .words(mesh.boundary.iter().flat_map(|t| {
            let [a, b, c] = t.verts;
            [a as u64, b as u64, c as u64, t.tag as u64]
        }))
        .0;
    let perm = rcm(&mesh.vertex_graph());
    let rcm = Fnv::new().words(perm.iter().map(|&p| p as u64)).0;
    mesh.renumber(&perm);

    let dual = DualMesh::build(&mesh);
    let mut h = Fnv::new();
    h.word(edges_hash(&dual.edges));
    h.words(dual.edge_normal.iter().flat_map(|n| [n.x.to_bits(), n.y.to_bits(), n.z.to_bits()]));
    h.words(dual.vol.iter().map(|v| v.to_bits()));
    h.words(dual.boundary.iter().flat_map(|b| {
        [b.vertex as u64, b.tag as u64, b.normal.x.to_bits(), b.normal.y.to_bits(), b.normal.z.to_bits()]
    }));
    let dual_hash = h.0;

    let nv = mesh.nvertices();
    let jac = Bcsr4::from_edges(nv, &dual.edges);
    let bcsr = Fnv::new()
        .words(jac.row_ptr.iter().map(|&p| p as u64))
        .words(jac.col_idx.iter().map(|&c| c as u64))
        .word(jac.blocks.len() as u64)
        .0;
    let iluk1 = Fnv::new().rows(&ilu::symbolic_iluk(&jac, 1)).0;

    let graph = mesh.vertex_graph();
    let cfg = MultilevelConfig::default();
    let part = |k| Fnv::new().words(partition_graph(&graph, k, &cfg).iter().map(|&p| p as u64)).0;
    let (part2, part4) = (part(2), part(4));

    let d = Decomposition::build(nv, &dual.edges, 2);
    let mut h = Fnv::new();
    h.words(d.part.iter().map(|&p| p as u64));
    for s in &d.subdomains {
        h.word(s.rank as u64);
        h.words(s.owned.iter().map(|&v| v as u64));
        h.words(s.ghosts.iter().map(|&v| v as u64));
        h.word(edges_hash(&s.edges));
        h.words(s.edge_gids.iter().map(|&e| e as u64));
        h.words(s.write_masks.iter().map(|&m| m as u64));
        for lists in [&s.send_lists, &s.recv_lists] {
            h.word(lists.len() as u64);
            for (peer, list) in lists {
                h.word(*peer as u64);
                h.words(list.iter().map(|&l| l as u64));
            }
        }
    }
    [
        ("Mesh::edges", edges),
        ("mesh.boundary", boundary),
        ("RCM permutation", rcm),
        ("DualMesh", dual_hash),
        ("symbolic_iluk(1)", iluk1),
        ("Bcsr4::from_edges", bcsr),
        ("partition_graph(2)", part2),
        ("partition_graph(4)", part4),
        ("Decomposition(P=2)", h.0),
    ]
}

fn check(spec: ChannelSpec, pins: Pins) {
    let want = [
        pins.edges, pins.boundary, pins.rcm, pins.dual, pins.iluk1, pins.bcsr, pins.part2,
        pins.part4, pins.decomp2,
    ];
    let got = artifacts(spec);
    let moved: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, g), w)| g != w)
        .map(|((name, g), w)| format!("{name}: {g:#018x} (pinned {w:#018x})"))
        .collect();
    assert!(moved.is_empty(), "set-up artifacts moved:\n  {}", moved.join("\n  "));
}

#[test]
fn tiny_setup_artifacts_are_pinned() {
    check(
        MeshPreset::Tiny.spec(),
        Pins {
            edges: 0x85c78839d7afcfce,
            boundary: 0x3b1cebdb6fbb7ff9,
            rcm: 0xcf00e81ae94633c5,
            dual: 0x2a12a6c7c2b259b6,
            iluk1: 0x633d086a20e38004,
            bcsr: 0xd275870f4eb4cd63,
            part2: 0x7564dc337c97c5eb,
            part4: 0x8c3e505c76fe2369,
            decomp2: 0x36807b0cd005d950,
        },
    );
}

#[test]
fn benchmark_mesh_setup_artifacts_are_pinned() {
    check(
        ChannelSpec::with_resolution(21, 13, 13),
        Pins {
            edges: 0x431f4b6f0efbd16b,
            boundary: 0x78c5f3cdacc37328,
            rcm: 0x9b6f8077400fe170,
            dual: 0x09ee3d5bdbce95f1,
            iluk1: 0x73dbe8264c7012d8,
            bcsr: 0x1a8545cd02109f9b,
            part2: 0x00febb1292a6e227,
            part4: 0x9c650bd94208d987,
            decomp2: 0x3c58881c3bc49d23,
        },
    );
}

#[test]
fn converged_tiny_solves_are_pinned() {
    let ptc = PtcConfig {
        dt0: 2.0,
        rtol: 1e-7,
        max_steps: 80,
        ..Default::default()
    };
    // The execution scheme is fixed rather than left to the policy, whose
    // choice rests on a timed calibration: serial GMRES at T = 1, team
    // GMRES over the partitioned owner-writes flux and the P2P sweeps at
    // T = 2.
    let rows = [
        (1usize, ExecMode::Serial, 0x2535bdbd61253900u64, 62usize),
        (2, ExecMode::Team, 0x7d02fc1855f991a1, 62),
    ];
    for (nt, exec, state, iters) in rows {
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        let mut cfg = OptConfig::optimized(nt);
        cfg.exec = exec;
        let mut app = Fun3dApp::new(mesh, FlowConditions::default(), cfg);
        let (u, stats) = app.run(&ptc);
        assert!(stats.converged, "T = {nt}");
        let got = Fnv::new().words(u.iter().map(|x| x.to_bits())).0;
        assert_eq!(
            (got, stats.linear_iters),
            (state, iters),
            "T = {nt}: converged state {got:#018x}, {} linear iterations",
            stats.linear_iters
        );
    }
}
