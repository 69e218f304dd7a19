//! Defense side of the fault sneaking attack: detectors and the
//! attack-vs-defense stealth arena.
//!
//! The paper's headline property is *stealthiness* — the modification
//! flips `S` designated images while the keep set hides it — but a
//! stealth claim is only meaningful against concrete monitors. This
//! crate operationalizes "hidden from whom": a [`Detector`] is a
//! calibrated tamper monitor that sees only the deployed model, and a [`StealthArena`] runs a whole
//! [`DefenseSuite`] against every scenario of a campaign, producing the
//! attack×detector matrix stealth is *measured* on.
//!
//! Four detector families, spanning the realistic monitor stack:
//!
//! * [`checksum`] — block-granular parameter-integrity checksums (FNV
//!   over weight blocks) with a bounded audit budget; the granularity
//!   sweep quantifies how far an ℓ0-sparse `δ` evades coarse audits;
//! * [`accuracy`] — the held-out accuracy probe (the paper's own
//!   stealth definition as a monitor, probe batches served from the
//!   shared [`fsa_nn::FeatureCache`] pipeline);
//! * [`drift`] — per-layer activation-statistic drift against a
//!   reference, via the [`fsa_nn::stats`] tap;
//! * [`parity`] — a DRAM-row code monitor over
//!   [`fsa_memfault::dram`]'s address mapping (row parity: odd flip
//!   counts alarm, even counts evade — the ECC limitation rowhammer
//!   exploits).
//!
//! Round 2 of the arms race re-arms the same two integrity types rather
//! than adding new ones: [`ChecksumDetector::rotating`] audits a seeded
//! schedule of shifted block phases (scored as the exact expected
//! detection probability over the schedule), [`RowCodeDetector`] runs
//! the column-parity and per-row CRC codes next to row parity, and
//! [`DefenseSuite::randomized`] deploys them all plus a held-out drift
//! probe — one stack per schedule seed, still bit-deterministic.
//!
//! Everything is deterministic by construction: detector scores are
//! pure fixed-order functions of bit-deterministic model outputs, and
//! arena rows dispatch through the same
//! [`fsa_tensor::parallel::par_map`] item map as campaign scenarios, so
//! the full [`ArenaReport`] is bit-identical serial vs concurrent at any
//! `FSA_THREADS`.
//!
//! # Examples
//!
//! ```
//! use fsa_attack::campaign::{Campaign, CampaignSpec};
//! use fsa_attack::ParamSelection;
//! use fsa_defense::{DefenseSuite, StealthArena};
//! use fsa_defense::accuracy::AccuracyProbe;
//! use fsa_defense::checksum::ChecksumDetector;
//! use fsa_nn::head::FcHead;
//! use fsa_nn::FeatureCache;
//! use fsa_tensor::{Prng, Tensor};
//!
//! let mut rng = Prng::new(9);
//! let head = FcHead::from_dims(&[8, 16, 4], &mut rng);
//! let pool = Tensor::randn(&[20, 8], 1.0, &mut rng);
//! let labels = head.predict(&pool);
//! let probe = Tensor::randn(&[12, 8], 1.0, &mut rng);
//! let probe_labels = head.predict(&probe);
//!
//! // Calibrate a two-detector suite on the clean model.
//! let mut suite = DefenseSuite::new();
//! suite.push(Box::new(ChecksumDetector::new(&head, 16, 2)));
//! suite.push(Box::new(AccuracyProbe::new(
//!     &head,
//!     FeatureCache::from_features(probe),
//!     probe_labels,
//!     0.02,
//! )));
//!
//! // Attack, then score the whole campaign against the suite.
//! let selection = ParamSelection::last_layer(&head);
//! let campaign = Campaign::new(
//!     &head,
//!     selection.clone(),
//!     FeatureCache::from_features(pool),
//!     labels,
//! );
//! let report = campaign.run(&CampaignSpec::grid(vec![1], vec![2]));
//! let arena = StealthArena::new(&head, selection, suite);
//! let matrix = arena.score_report(&report);
//! assert_eq!(matrix.len(), 1);
//! assert_eq!(matrix.detectors.len(), 2);
//! assert!(matrix.clean.iter().all(|v| !v.detected));
//! ```

#![warn(missing_docs)]

pub mod accuracy;
pub mod arena;
pub mod checksum;
pub mod detector;
pub mod drift;
pub mod parity;
pub mod suite;

pub use accuracy::AccuracyProbe;
pub use arena::{ArenaReport, ArenaRow, RocPoint, StealthArena};
pub use checksum::ChecksumDetector;
pub use detector::{Detector, Verdict};
pub use drift::DriftDetector;
pub use parity::RowCodeDetector;
pub use suite::DefenseSuite;
