//! # fork-core
//!
//! The public API of the *Stick a fork in it* reproduction. A [`ForkStudy`]
//! binds the calibrated DAO-fork scenario to the two-chain simulation
//! engine; running it yields a [`StudyResult`] from which every figure of
//! the paper ([`StudyResult::figure1`] … [`StudyResult::figure5`]) and every
//! in-text observation ([`observations::short_term`],
//! [`observations::long_term`]) can be regenerated.
//!
//! ```
//! use fork_core::{observations, ForkStudy};
//!
//! let result = ForkStudy::quick(7).run();
//! let report = observations::short_term(&result);
//! println!("{}", report.to_markdown());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod observations;
pub mod report;
pub mod study;

pub use figures::{FigureData, FigurePanel};
pub use observations::{Observation, ObservationReport};
pub use report::{full_report, summary_text};
pub use study::{ForkStudy, StudyResult, FIRST_MONTH_DAYS};
