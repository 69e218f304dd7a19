//! The memory-layout detectors re-hash only the blocks and DRAM rows an
//! observation changed. This pins them against the full recomputation
//! they replace — every block checksum of every phase and every row code
//! of the whole observed buffer, compared with the calibrated model's —
//! on seeded tampered heads: `-0.0`/`+0.0` flips, NaN-payload changes,
//! words on block, phase-offset and DRAM-row edges, an untouched head and
//! a head with every word changed. `dirty_blocks`, `violations` and the
//! score bits must agree for every rotating phase and every `RowCode`,
//! with detectors evaluated on one thread and on two.

use fsa_defense::checksum::{hypergeometric_hit_probability, ChecksumDetector};
use fsa_defense::detector::{flat_params, Detector};
use fsa_defense::parity::RowCodeDetector;
use fsa_memfault::dram::{DramGeometry, ParamLayout};
use fsa_memfault::parity::RowCode;
use fsa_nn::head::FcHead;
use fsa_tensor::hash::fnv1a_f32_bits;
use fsa_tensor::parallel::{lock_threads, par_map};
use fsa_tensor::Prng;

const CODES: [RowCode; 3] = [RowCode::Parity, RowCode::Column, RowCode::Crc];
const GRANULARITIES: [usize; 3] = [4, 16, 64];
const GEOMETRIES: [DramGeometry; 2] = [
    // 8 words a row over 2 banks; 16 words a row over 3 banks.
    DramGeometry {
        banks: 2,
        rows_per_bank: 64,
        row_bytes: 32,
    },
    DramGeometry {
        banks: 3,
        rows_per_bank: 64,
        row_bytes: 64,
    },
];

/// Writes `bits` into flat parameter `index` of `head`.
fn set_word(head: &mut FcHead, index: usize, bits: u32) {
    let mut off = 0;
    for l in 0..head.num_layers() {
        let count = head.layer_param_count(l);
        if index < off + count {
            let mut flat = head.layer_flat_params(l);
            flat[index - off] = f32::from_bits(bits);
            head.set_layer_flat_params(l, &flat);
            return;
        }
        off += count;
    }
    panic!("index {index} out of range");
}

/// The calibrated model: a random head (12→10→8→3, 245 words) holding
/// `+0.0`, `-0.0` and NaN words, so tampers can flip a zero's sign or a
/// NaN's payload.
fn reference() -> FcHead {
    let mut head = FcHead::from_dims(&[12, 10, 8, 3], &mut Prng::new(0xD1FF));
    for (index, bits) in [
        (5, 0x0000_0000),
        (17, 0x8000_0000),
        (63, 0x0000_0000),
        (64, 0x7FC0_0001),
        (130, 0xFFC0_0000),
        (244, 0x8000_0000),
    ] {
        set_word(&mut head, index, bits);
    }
    head
}

/// Every block checksum of the partition at `offset`: a head block
/// `[0, offset)` when `offset > 0`, then `g`-word blocks.
fn phase_checksums(params: &[f32], g: usize, offset: usize) -> Vec<u64> {
    let split = offset.min(params.len());
    let mut out = Vec::new();
    if offset > 0 {
        out.push(fnv1a_f32_bits(&params[..split]));
    }
    out.extend(params[split..].chunks(g).map(fnv1a_f32_bits));
    out
}

/// Dirty blocks per phase, and the score, of the whole observed buffer.
fn full_checksum(
    det: &ChecksumDetector,
    g: usize,
    reference: &[f32],
    observed: &[f32],
) -> (Vec<usize>, f32) {
    let mut dirty = Vec::new();
    let mut sum = 0.0f64;
    for &offset in det.offsets() {
        let before = phase_checksums(reference, g, offset);
        let after = phase_checksums(observed, g, offset);
        let d = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        sum += f64::from(hypergeometric_hit_probability(
            before.len(),
            d,
            det.audit_blocks(),
        ));
        dirty.push(d);
    }
    (dirty, (sum / det.offsets().len() as f64) as f32)
}

/// One CRC-32 step, bitwise (reflected polynomial `0xEDB88320`).
fn crc_step(mut crc: u32, byte: u8) -> u32 {
    crc ^= u32::from(byte);
    for _ in 0..8 {
        crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
    }
    crc
}

/// Every row code of a buffer laid out at byte 0, rows sorted.
fn full_codes(code: RowCode, layout: &ParamLayout, params: &[f32]) -> Vec<((usize, usize), u32)> {
    let mut ids: Vec<(usize, usize)> = (0..params.len())
        .map(|i| layout.address(i).row_id())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .map(|id| {
            let words = (0..params.len())
                .filter(|&i| layout.address(i).row_id() == id)
                .map(|i| params[i].to_bits());
            let value = match code {
                RowCode::Parity => words.fold(0, |a, w| a ^ w).count_ones() & 1,
                RowCode::Column => words.fold(0, |a, w| a ^ w),
                RowCode::Crc => !words.flat_map(u32::to_le_bytes).fold(0xFFFF_FFFF, crc_step),
            };
            (id, value)
        })
        .collect()
}

fn full_violations(
    code: RowCode,
    layout: &ParamLayout,
    reference: &[f32],
    observed: &[f32],
) -> Vec<(usize, usize)> {
    full_codes(code, layout, reference)
        .into_iter()
        .zip(full_codes(code, layout, observed))
        .filter_map(|((id, a), (_, b))| (a != b).then_some(id))
        .collect()
}

/// The detectors under test: fixed and rotating auditors (two schedule
/// seeds, a partial and a full audit) at every granularity, and every
/// row code over every geometry.
fn detectors(head: &FcHead) -> (Vec<(usize, ChecksumDetector)>, Vec<RowCodeDetector>) {
    let blocks = |g: usize| (head.param_count().div_ceil(g) / 4).max(1);
    let mut checksums = Vec::new();
    for g in GRANULARITIES {
        checksums.push((g, ChecksumDetector::new(head, g, blocks(g))));
        for seed in [7, 0x5EED] {
            checksums.push((g, ChecksumDetector::rotating(head, g, blocks(g), seed)));
            checksums.push((g, ChecksumDetector::rotating(head, g, usize::MAX, seed)));
        }
    }
    let rows = GEOMETRIES
        .iter()
        .flat_map(|&geometry| CODES.map(|code| RowCodeDetector::new(code, head, geometry)))
        .collect();
    (checksums, rows)
}

/// The words on an edge of some block, phase or row: the first and last
/// word of every block of every phase of every auditor, and of every row.
fn edge_words(checksums: &[(usize, ChecksumDetector)], n: usize) -> Vec<usize> {
    let mut edges = vec![0, n - 1];
    for (g, det) in checksums {
        for &offset in det.offsets() {
            let mut start = offset;
            while start < n {
                edges.extend(start.checked_sub(1));
                edges.push(start);
                start += g;
            }
        }
    }
    for geometry in GEOMETRIES {
        let layout = ParamLayout::new(geometry, 0, n);
        for i in 1..n {
            if layout.address(i).row_id() != layout.address(i - 1).row_id() {
                edges.extend([i - 1, i]);
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Seeded tampered heads, each with a label.
fn tampered(head: &FcHead, edges: &[usize]) -> Vec<(String, FcHead)> {
    let n = head.param_count();
    let words: Vec<u32> = flat_params(head).iter().map(|v| v.to_bits()).collect();
    let mut out = vec![("untouched".to_string(), head.clone())];
    let mut all = head.clone();
    for (i, &w) in words.iter().enumerate() {
        set_word(&mut all, i, w ^ (1 << (i % 32)));
    }
    out.push(("every word".into(), all));
    // Signed zeros flip sign; NaNs change payload or sign.
    let mut zeros = head.clone();
    for (i, w) in [(5, 0x8000_0000), (17, 0x0000_0000), (244, 0x0000_0000)] {
        set_word(&mut zeros, i, w);
    }
    out.push(("signed zeros".into(), zeros));
    let mut nans = head.clone();
    set_word(&mut nans, 64, 0x7FC0_0002);
    set_word(&mut nans, 130, 0x7FC0_0000);
    out.push(("nan payloads".into(), nans));
    let mut zero_row = head.clone();
    set_word(&mut zero_row, 63, 0x8000_0000);
    set_word(&mut zero_row, 64, 0x7FC0_0003);
    out.push(("zero and nan side by side".into(), zero_row));
    // Every edge word alone, then each adjacent pair of edge words.
    for &i in edges {
        let mut t = head.clone();
        set_word(&mut t, i, words[i] ^ 0x0040_0000);
        out.push((format!("edge {i}"), t));
    }
    for pair in edges.windows(2) {
        let mut t = head.clone();
        for &i in pair {
            set_word(&mut t, i, words[i] ^ 0x8000_0001);
        }
        out.push((format!("edges {pair:?}"), t));
    }
    // Seeded sparse and dense supports with multi-bit masks, the
    // sparse ones mostly in the last layer (where an attack's δ lies).
    let mut rng = Prng::new(0x0DD5);
    for trial in 0..40 {
        let mut t = head.clone();
        let count = if trial % 4 == 3 {
            1 + rng.below(n)
        } else {
            1 + rng.below(12)
        };
        let last = n - head.layer_param_count(head.num_layers() - 1);
        for k in rng.choose_distinct(n, count) {
            let i = if trial % 2 == 0 {
                last + k % (n - last)
            } else {
                k
            };
            set_word(&mut t, i, words[i] ^ (rng.next_u64() as u32).max(1));
        }
        out.push((format!("seeded {trial}"), t));
    }
    out
}

#[test]
fn diff_driven_detectors_match_the_full_recomputation() {
    let guard = lock_threads();
    let head = reference();
    let clean = flat_params(&head);
    let (checksums, rows) = detectors(&head);
    let heads = tampered(&head, &edge_words(&checksums, clean.len()));
    assert!(heads.len() > 100, "{} tampered heads", heads.len());
    let layouts: Vec<ParamLayout> = GEOMETRIES
        .iter()
        .map(|&g| ParamLayout::new(g, 0, clean.len()))
        .collect();

    // The oracle, once: full recomputation of every head.
    type Want = (Vec<(Vec<usize>, f32)>, Vec<Vec<(usize, usize)>>);
    let want: Vec<Want> = heads
        .iter()
        .map(|(_, h)| {
            let observed = flat_params(h);
            let sums = checksums
                .iter()
                .map(|(g, det)| full_checksum(det, *g, &clean, &observed))
                .collect();
            let codes = layouts
                .iter()
                .flat_map(|l| CODES.map(|code| full_violations(code, l, &clean, &observed)))
                .collect();
            (sums, codes)
        })
        .collect();

    for threads in [1, 2] {
        guard.set(threads);
        let got = par_map(heads.len(), |k| {
            let h = &heads[k].1;
            let sums: Vec<(Vec<usize>, u32)> = checksums
                .iter()
                .map(|(_, det)| (det.dirty_blocks(h), det.score(h).to_bits()))
                .collect();
            let codes: Vec<(Vec<(usize, usize)>, u32)> = rows
                .iter()
                .map(|det| (det.violations(h), det.score(h).to_bits()))
                .collect();
            (sums, codes)
        });
        for (((label, _), (want_sums, want_rows)), (sums, codes)) in
            heads.iter().zip(&want).zip(&got)
        {
            for (((_, det), (dirty, score)), (got_dirty, got_score)) in
                checksums.iter().zip(want_sums).zip(sums)
            {
                let name = det.name();
                assert_eq!(got_dirty, dirty, "{threads} threads, {label}: {name}");
                assert_eq!(
                    *got_score,
                    score.to_bits(),
                    "{threads} threads, {label}: {name}"
                );
            }
            for ((det, violations), (got_rows, got_score)) in rows.iter().zip(want_rows).zip(codes)
            {
                let name = det.name();
                assert_eq!(got_rows, violations, "{threads} threads, {label}: {name}");
                assert_eq!(
                    *got_score,
                    (violations.len() as f32).to_bits(),
                    "{threads} threads, {label}: {name}"
                );
            }
        }
    }
    // The heads reach what they should: the untouched one is clean, the
    // every-word one dirties every block of every phase and every row,
    // and the signed-zero and NaN heads are seen at all.
    let (untouched, every) = (&want[0], &want[1]);
    assert!(untouched
        .0
        .iter()
        .all(|(d, s)| d.iter().all(|&x| x == 0) && *s == 0.0));
    assert!(untouched.1.iter().all(Vec::is_empty));
    for ((g, det), (dirty, _)) in checksums.iter().zip(&every.0) {
        let all: Vec<usize> = det
            .offsets()
            .iter()
            .map(|&o| usize::from(o > 0) + (clean.len() - o).div_ceil(*g))
            .collect();
        assert_eq!(dirty, &all, "{}", det.name());
    }
    for (k, layout) in layouts.iter().enumerate() {
        let rows_total = full_codes(RowCode::Column, layout, &clean).len();
        // Word i flips bit i mod 32, so a row's flips never cancel in its
        // column syndrome, and every CRC moves.
        assert_eq!(every.1[3 * k + 1].len(), rows_total);
        assert_eq!(every.1[3 * k + 2].len(), rows_total);
    }
    for (_, (sums, codes)) in heads[2..5].iter().zip(&want[2..5]) {
        assert!(sums.iter().any(|(d, _)| d.iter().any(|&x| x > 0)));
        assert!(codes.iter().any(|v| !v.is_empty()));
    }
}
