//! Golden digests of compiled programs.
//!
//! Every case compiles a seeded workload and hashes what the compiler hands
//! on: the packed instruction image, the data layout, the output ids and
//! every `CompileStats` field except the wall-clock `compile_ms`. The
//! digests pin the compiler's output bit for bit, so a change that is meant
//! to make compilation cheaper (buffer reuse, parallel decomposition,
//! different set representations) must reproduce them exactly. A change
//! that is meant to alter the programs updates the tables and says why.
//!
//! The hash is a hand-rolled FNV-1a: `DefaultHasher` is not stable across
//! toolchains.
//!
//! The full-size case (`paper_suite_full_size`) is `#[ignore]`d because it
//! compiles the 12 Table I DAGs at published size, the same programs the
//! `paper_suite_cold` benchmark compiles; run it with
//! `cargo test --release --test compile_golden -- --ignored`.

use dpu_core::compiler::footprint::Footprint;
use dpu_core::compiler::{
    compile, BankPolicy, CompileOptions, CompileStats, Compiled, ConflictStats,
};
use dpu_core::dag::partition::partition;
use dpu_core::isa::InstrBreakdown;
use dpu_core::prelude::*;
use dpu_core::workloads::suite::small_suite;

/// Table I DAGs are generated at this fraction of their published size for
/// the debug-build cases.
const SCALE: f64 = 0.1;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(c: &Compiled) -> u64 {
    let mut h = Fnv1a::new();
    let packed = c.program.pack();
    h.u64(c.program.len() as u64);
    h.u64(packed.len() as u64);
    h.bytes(&packed);

    let layout = &c.layout;
    for slots in [&layout.input_slots, &layout.output_slots] {
        h.u64(slots.len() as u64);
        for &(row, col) in slots.iter() {
            h.u64(u64::from(row));
            h.u64(u64::from(col));
        }
    }
    h.u64(u64::from(layout.spill_base));
    h.u64(u64::from(layout.rows_used));

    h.u64(c.outputs.len() as u64);
    for o in &c.outputs {
        h.u64(u64::from(o.0));
    }

    // Destructured exhaustively: a new stats field fails to build here
    // until the digest covers it.
    let CompileStats {
        blocks,
        pe_utilization,
        conflicts:
            ConflictStats {
                read_conflicts,
                write_conflicts,
                copies_inserted,
            },
        reorder_nops,
        spill_stores,
        spill_reloads,
        stall_nops,
        total_cycles,
        breakdown:
            InstrBreakdown {
                exec,
                copy,
                load,
                store,
                nop,
            },
        program_bits,
        program_bits_explicit,
        footprint:
            Footprint {
                instr_bits,
                data_bits,
                csr_bits,
            },
        compile_ms: _,
    } = c.stats;
    for v in [
        blocks,
        pe_utilization.to_bits(),
        read_conflicts,
        write_conflicts,
        copies_inserted,
        reorder_nops,
        spill_stores,
        spill_reloads,
        stall_nops,
        total_cycles,
        exec,
        copy,
        load,
        store,
        nop,
        program_bits,
        program_bits_explicit,
        instr_bits,
        data_bits,
        csr_bits,
    ] {
        h.u64(v);
    }
    h.0
}

/// Compiles every `(name, dag)` pair with the options `opts` picks for it
/// and compares the digests with `golden`, printing the whole table to
/// paste on a mismatch.
fn check(
    case: &str,
    cfg: &ArchConfig,
    opts: impl Fn(&Dag) -> CompileOptions,
    dags: &[(&'static str, Dag)],
    golden: &[(&str, u64)],
) -> Vec<Compiled> {
    let compiled: Vec<Compiled> = dags
        .iter()
        .map(|(name, dag)| {
            compile(dag, cfg, &opts(dag)).unwrap_or_else(|e| panic!("{case}/{name}: {e}"))
        })
        .collect();
    let got: Vec<(&str, u64)> = dags
        .iter()
        .zip(&compiled)
        .map(|((name, _), c)| (*name, digest(c)))
        .collect();
    if got != golden {
        let table: String = got
            .iter()
            .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
            .collect();
        panic!("{case}: compiled programs differ from the golden digests; got\n{table}");
    }
    compiled
}

fn scaled_suite() -> Vec<(&'static str, Dag)> {
    small_suite()
        .into_iter()
        .map(|spec| (spec.name, spec.generate_scaled(SCALE)))
        .collect()
}

#[test]
fn scaled_suite_on_large() {
    check(
        "scaled_suite_on_large",
        &ArchConfig::large(),
        |_| CompileOptions::default(),
        &scaled_suite(),
        SCALED_LARGE,
    );
}

#[test]
fn scaled_suite_partitioned_beyond_host_cpus() {
    // A threshold of a tenth of the binarized DAG gives at least 8
    // partitions per DAG: more than the CPUs of a typical test host, so a
    // bounded decomposition pool has to hand several partitions to each
    // worker.
    let threshold = |dag: &Dag| dag.binarize().0.len() / 10;
    let dags = scaled_suite();
    for (name, dag) in &dags {
        let parts = partition(&dag.binarize().0, threshold(dag)).len();
        assert!(parts >= 8, "{name}: only {parts} partitions");
    }
    check(
        "scaled_suite_partitioned_beyond_host_cpus",
        &ArchConfig::large(),
        |dag| CompileOptions {
            partition_threshold: threshold(dag),
            ..CompileOptions::default()
        },
        &dags,
        SCALED_PARTITIONED,
    );
}

#[test]
fn tiny_register_file_spills() {
    let cfg = ArchConfig::new(2, 8, 4).expect("valid config");
    let dags: Vec<(&'static str, Dag)> = scaled_suite().into_iter().step_by(3).collect();
    let compiled = check(
        "tiny_register_file_spills",
        &cfg,
        |_| CompileOptions::default(),
        &dags,
        TINY_REGISTERS,
    );
    for c in &compiled {
        assert!(c.stats.spill_stores > 0, "expected spill traffic");
        assert!(
            c.stats.conflicts.total() > 0,
            "expected bank conflicts repaired at emission"
        );
    }
}

#[test]
fn random_bank_policy() {
    let dags: Vec<(&'static str, Dag)> = scaled_suite().into_iter().step_by(2).collect();
    check(
        "random_bank_policy",
        &ArchConfig::large(),
        |_| CompileOptions {
            bank_policy: BankPolicy::Random,
            ..CompileOptions::default()
        },
        &dags,
        RANDOM_BANKS,
    );
}

#[test]
#[ignore = "compiles the 12 Table I DAGs at published size; run in release"]
fn paper_suite_full_size() {
    let dags: Vec<(&'static str, Dag)> = small_suite()
        .into_iter()
        .map(|spec| (spec.name, spec.generate()))
        .collect();
    check(
        "paper_suite_full_size",
        &ArchConfig::large(),
        |_| CompileOptions::default(),
        &dags,
        FULL_SIZE,
    );
}

const SCALED_LARGE: &[(&str, u64)] = &[
    ("tretail", 0xa2a4aac9ae4cc9c4),
    ("mnist", 0x71f58e71c33db926),
    ("nltcs", 0xcf7a87111ce22393),
    ("msnbc", 0x21c443991cf85d72),
    ("msweb", 0x49f1a1ca13790a47),
    ("bnetflix", 0x1c339c0da4e444d5),
    ("bp_200", 0x04631864e983e8ff),
    ("west2021", 0xf16e962604c08eeb),
    ("sieber", 0x33fb697f5ddca100),
    ("jagmesh4", 0xddea46ae296e1572),
    ("rdb968", 0x9a1043314df951f7),
    ("dw2048", 0x1bf0fdb03f51679e),
];

const SCALED_PARTITIONED: &[(&str, u64)] = &[
    ("tretail", 0xd860eaae042b69fb),
    ("mnist", 0x2a613454a14e0bcf),
    ("nltcs", 0x25842555086cc963),
    ("msnbc", 0x002bc4233e5e4930),
    ("msweb", 0x5cc891f37b02ec6d),
    ("bnetflix", 0xfdc237b6fcae144c),
    ("bp_200", 0xa02f828c1a3f2dcf),
    ("west2021", 0x988cdffc9cf5e0bc),
    ("sieber", 0xbece93ff23820ffc),
    ("jagmesh4", 0x3cd1ea5b21ed7359),
    ("rdb968", 0x8f08f03fce97a7fa),
    ("dw2048", 0xac9feb161097e747),
];

const TINY_REGISTERS: &[(&str, u64)] = &[
    ("tretail", 0xdf3412a951c2dab5),
    ("msnbc", 0x51bf9b2592a0bd36),
    ("bp_200", 0xf68f55051fe2034f),
    ("jagmesh4", 0x2a7fb62d709f32ce),
];

const RANDOM_BANKS: &[(&str, u64)] = &[
    ("tretail", 0xb5701ffbfbdbe802),
    ("nltcs", 0x8aadbfe6aceedb60),
    ("msweb", 0xef49c2e36358000e),
    ("bp_200", 0xad8afeb83e84f2a0),
    ("sieber", 0xa712eecd0c279966),
    ("rdb968", 0x5ddbcd28a733d303),
];

const FULL_SIZE: &[(&str, u64)] = &[
    ("tretail", 0x9c8e2d145037126a),
    ("mnist", 0x6c091647a3e1aabb),
    ("nltcs", 0x48a3b4ad2879a78b),
    ("msnbc", 0xa234706bb634eead),
    ("msweb", 0x8b5d61260df4719b),
    ("bnetflix", 0x8f1f46bcc289c78d),
    ("bp_200", 0x982ee389a5518be7),
    ("west2021", 0xc2924d1262335d30),
    ("sieber", 0xda428549ccf7b518),
    ("jagmesh4", 0x1221e817ba9e2ff9),
    ("rdb968", 0x4518d910de9ff42c),
    ("dw2048", 0x220d0329d77914f1),
];
