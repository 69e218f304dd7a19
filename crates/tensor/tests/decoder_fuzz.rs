//! Seeded fuzzing of the artifact readers in `fsa_tensor::io`.
//!
//! Each reader runs on two kinds of hostile input: structural mutants
//! of a valid record stream (every 4- and 8-byte window overwritten
//! with hostile integers, so every tag, rank, dim and length field is
//! hit, plus truncations and extensions), and seeded random bytes.
//! Every input must end as `Ok` or a [`DecodeError`]: never a panic,
//! and never an allocation larger than the input could justify. A
//! reader that trusted a forged length prefix would show up as the
//! latter even on a host that grants the memory.

use fsa_tensor::io::{DecodeError, Decoder, Encoder};
use fsa_tensor::{Prng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The system allocator, recording the largest request each thread
/// makes and refusing any over [`REFUSED`] bytes (a refused request
/// aborts the test binary with the request's size).
struct Tracking;

/// No decode of a few-hundred-byte input has a reason to ask for this.
const REFUSED: usize = 1 << 26;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) -> bool {
    // `try_with`: the slot is gone while a thread is torn down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    size <= REFUSED
}

// SAFETY: every call forwards to `System` with the caller's layout, or
// returns null, which the `GlobalAlloc` contract allows for any request.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if note(layout.size()) {
            System.alloc(layout)
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if note(layout.size()) {
            System.alloc_zeroed(layout)
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if note(new_size) {
            System.realloc(ptr, layout, new_size)
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// One record for every reader, in the order [`read_all`] reads them:
/// tensors of rank 2, 0 and 3, a string, and every slice kind.
fn records(rng: &mut Prng) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_tensor(&Tensor::randn(&[2, 3], 1.0, rng));
    e.put_str("fault sneaking");
    e.put_f32_slice(&[1.0, -2.5, f32::MIN_POSITIVE]);
    e.put_u32_slice(&[7, 0, u32::MAX]);
    e.put_u64_slice(&[8u64, 0, u64::MAX]);
    e.put_tensor(&Tensor::from_vec(vec![4.0], &[]));
    e.put_tensor(&Tensor::randn(&[1, 2, 2], 1.0, rng));
    e.into_bytes()
}

/// Reads [`records`] back, stopping at the first error.
fn read_all(bytes: &[u8]) -> Result<(), DecodeError> {
    let mut d = Decoder::new(bytes);
    d.read_tensor()?;
    d.read_str()?;
    d.read_f32_vec()?;
    d.read_u32_vec()?;
    d.read_u64_vec::<u64>()?;
    d.read_tensor()?;
    d.read_tensor()?;
    Ok(())
}

/// Hostile replacements for an integer field whose current value is
/// `orig`.
fn hostile(orig: u64) -> [u64; 12] {
    [
        0,
        1,
        orig.wrapping_add(1),
        orig.wrapping_sub(1),
        orig.wrapping_mul(2),
        orig / 2,
        9,
        1 << 31,
        u64::from(u32::MAX),
        1 << 32,
        1 << 63,
        u64::MAX,
    ]
}

/// Every structural mutant of `bytes`: each 4- and 8-byte window, at
/// every offset, overwritten with each hostile value, plus seeded
/// truncations and extensions.
fn mutants(bytes: &[u8], rng: &mut Prng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for width in [4usize, 8] {
        for at in 0..bytes.len().saturating_sub(width - 1) {
            let mut word = [0u8; 8];
            word[..width].copy_from_slice(&bytes[at..at + width]);
            for v in hostile(u64::from_le_bytes(word)) {
                let mut m = bytes.to_vec();
                m[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                out.push(m);
            }
        }
    }
    for _ in 0..32 {
        out.push(bytes[..rng.below(bytes.len() + 1)].to_vec());
        let mut longer = bytes.to_vec();
        longer.extend((0..1 + rng.below(16)).map(|_| rng.below(256) as u8));
        out.push(longer);
    }
    out
}

/// Runs `decode` on every input and fails on any panic or on any
/// allocation larger than twice the input plus 4 KiB, naming the first
/// few offenders.
fn fuzz(name: &str, inputs: &[Vec<u8>], decode: impl Fn(&[u8])) {
    let mut panics = Vec::new();
    let mut hungry = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        LARGEST.with(|l| l.set(0));
        if catch_unwind(AssertUnwindSafe(|| decode(input))).is_err() {
            panics.push(i);
        }
        let largest = LARGEST.with(Cell::get);
        if largest > 2 * input.len() + 4096 {
            hungry.push((i, largest));
        }
    }
    assert!(
        panics.is_empty(),
        "{name}: {} of {} inputs panicked (first: {:?})",
        panics.len(),
        inputs.len(),
        &panics[..panics.len().min(8)]
    );
    assert!(
        hungry.is_empty(),
        "{name}: {} of {} inputs allocated more than their size justifies \
         (first, as (input, bytes): {:?})",
        hungry.len(),
        inputs.len(),
        &hungry[..hungry.len().min(8)]
    );
}

/// Seeded byte soup of assorted lengths, some of it behind a valid
/// tensor tag so the rank/dim/length fields take random values.
fn random_inputs(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Prng::new(seed);
    (0..4096)
        .map(|i| {
            let len = rng.below(96);
            let mut bytes: Vec<u8> = if i % 2 == 0 {
                b"FSAT".to_vec()
            } else {
                Vec::new()
            };
            bytes.extend((0..len).map(|_| rng.below(256) as u8));
            bytes
        })
        .collect()
}

#[test]
fn valid_records_read_back() {
    let mut rng = Prng::new(0x10F);
    let bytes = records(&mut rng);
    assert_eq!(read_all(&bytes), Ok(()));
}

#[test]
fn structural_mutants_never_panic_or_overallocate() {
    let mut rng = Prng::new(0x10F);
    let bytes = records(&mut rng);
    let inputs = mutants(&bytes, &mut rng);
    fuzz("read_all", &inputs, |b| {
        let _ = read_all(b);
    });
}

#[test]
fn random_bytes_never_panic_or_overallocate_any_reader() {
    let inputs = random_inputs(0xB17E5);
    fuzz("read_tensor", &inputs, |b| {
        let _ = Decoder::new(b).read_tensor();
    });
    fuzz("read_str", &inputs, |b| {
        let _ = Decoder::new(b).read_str();
    });
    fuzz("read_f32_vec", &inputs, |b| {
        let _ = Decoder::new(b).read_f32_vec();
    });
    fuzz("read_u32_vec", &inputs, |b| {
        let _ = Decoder::new(b).read_u32_vec();
    });
    fuzz("read_u64_vec", &inputs, |b| {
        let _ = Decoder::new(b).read_u64_vec::<u64>();
    });
}
