//! # richnote-core
//!
//! Core algorithms and data model of the RichNote framework (ICDCS 2016):
//! *adaptive selection and delivery of rich media notifications to mobile
//! users*.
//!
//! The crate implements, from the paper:
//!
//! * the **data model** for notifications about rich media content
//!   ([`content`], [`ids`]);
//! * **presentation levels** — progressively richer renderings of a content
//!   item, from "metadata only" up to long audio previews, with Pareto
//!   pruning of dominated presentations ([`presentation`], Fig. 2(a));
//! * the **utility model** `U(i, j) = Uc(i) × Up(i, j)` combining content
//!   utility with presentation utility, including the survey-derived
//!   logarithmic and polynomial duration-utility functions (Eq. 8/9)
//!   ([`utility`]; the surveys they are fitted from live in `richnote-sim`);
//! * the **multi-choice knapsack (MCKP) selection heuristic**
//!   (`SelectPresentations`, Algorithm 1) with greedy, fractional and exact
//!   dynamic-programming solvers ([`mckp`]);
//! * the **Lyapunov drift-plus-penalty scheduler** (Algorithm 2) with the
//!   scheduling queue `Q(t)`, the virtual energy queue `P(t)` and the
//!   adjusted utility `Ua(i,j) = Q(t)·s(i) + (P(t)−κ)·ρ(i,j) + V·U(i,j)`
//!   ([`lyapunov`]);
//! * the round-based **scheduling policies**: `RichNote` and the two
//!   industry baselines, `FIFO` and `UTIL` ([`scheduler`]), all driven
//!   through the checkpointable, observable [`Policy`] trait ([`policy`]).
//!
//! # Quick example
//!
//! Select presentations for three notifications under a 500 KB budget:
//!
//! ```
//! use richnote_core::mckp::{select_greedy, MckpItem};
//! use richnote_core::presentation::AudioPresentationSpec;
//!
//! let ladder = AudioPresentationSpec::paper_default().ladder();
//! let items: Vec<MckpItem> = (0..3)
//!     .map(|i| MckpItem::from_ladder(i, &ladder, 1.0))
//!     .collect();
//! let selection = select_greedy(&items, 500_000);
//! assert!(selection.total_size <= 500_000);
//! assert_eq!(selection.levels.len(), 3);
//! ```

pub mod adaptive;
pub mod content;
pub mod error;
pub mod ids;
pub mod lyapunov;
pub mod mckp;
pub mod paper;
pub mod policy;
pub mod presentation;
pub mod quality;
pub mod registry;
pub mod scheduler;
pub mod utility;

pub use adaptive::{AdaptiveCheckpoint, AdaptiveConfig, AdaptivePolicy, EwmaThroughput};
pub use content::{ContentItem, ContentKind};
pub use error::LadderError;
pub use ids::{AlbumId, ArtistId, ContentId, PlaylistId, TopicId, TrackId, UserId};
pub use lyapunov::{LyapunovConfig, LyapunovState};
pub use mckp::{select_exact, select_fractional, select_greedy, MckpItem, Selection};
pub use policy::{
    AdaptiveDecision, FixedLevelCheckpoint, NoopObserver, Policy, PolicyCheckpoint, SelectDecision,
    SelectionObserver, WrongPolicy,
};
pub use presentation::{AudioPresentationSpec, Presentation, PresentationLadder};
pub use quality::{CohortCell, CohortLedger, ConnectivityCohort, QualitySample};
pub use registry::{PolicyName, UnknownPolicy};
pub use scheduler::{
    DeliveredNotification, FifoScheduler, NetSignal, QueuedNotification, RichNoteScheduler,
    RoundContext, RoundContextBuilder, TransferCost, UtilScheduler,
};
pub use utility::{combined_utility, ContentUtility, DurationUtility};
