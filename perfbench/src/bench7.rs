//! The `paper-2x` cells as recorded in the repository's `BENCH_7.json`
//! trajectory (`orig+fcfs` and `pf+fcfs`, seed 20260706): at that seed
//! every run must reproduce these simulated times and checksums.

use oocp_bench::Mode;
use oocp_nas::App;

/// Seed the trajectory was captured at.
pub const SEED: u64 = 20260706;

/// `(app, O elapsed ns, P elapsed ns, checksum)`; O and P share the
/// checksum because prefetching never changes results.
#[rustfmt::skip]
const CELLS: [(App, u64, u64, u64); 8] = [
    (App::Buk, 17_078_075_720, 8_208_192_362, 0x2658_f853_99a7_01e6),
    (App::Cgm, 24_001_989_352, 6_593_763_030, 0x9f92_b427_c08b_6e6a),
    (App::Embar, 15_477_538_924, 7_878_551_850, 0x1a2b_4a0d_5a27_ee7a),
    (App::Fft, 13_313_113_947, 11_641_601_450, 0x5e56_a47c_14ad_ea3e),
    (App::Mgrid, 57_873_769_995, 25_592_129_323, 0x6a0d_6508_5f37_cf59),
    (App::Applu, 37_615_757_509, 16_090_942_477, 0xf731_83c8_b2b0_dc4a),
    (App::Appsp, 78_000_129_284, 85_340_900_447, 0x5119_1dcc_704b_4410),
    (App::Appbt, 22_734_979_405, 26_431_417_700, 0x1b1e_3ab0_79cb_4da5),
];

/// The recorded `(elapsed_ns, checksum)` of one cell.
pub fn expected(app: App, mode: Mode) -> Option<(u64, u64)> {
    let &(_, o, p, checksum) = CELLS.iter().find(|c| c.0 == app)?;
    match mode {
        Mode::Original => Some((o, checksum)),
        Mode::Prefetch => Some((p, checksum)),
        _ => None,
    }
}
