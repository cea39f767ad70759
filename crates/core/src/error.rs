//! Error types for the core crate.

use std::error::Error;
use std::fmt;

/// Error building or validating a [`PresentationLadder`].
///
/// [`PresentationLadder`]: crate::presentation::PresentationLadder
#[derive(Debug, Clone, PartialEq)]
pub enum LadderError {
    /// The ladder has no presentation beyond level 0.
    Empty,
    /// Two successive levels do not strictly increase in size.
    NonMonotoneSize {
        /// The lower of the two offending levels.
        level: u8,
    },
    /// Two successive levels do not strictly increase in utility.
    NonMonotoneUtility {
        /// The lower of the two offending levels.
        level: u8,
    },
    /// A utility value is not a finite number.
    NonFiniteUtility {
        /// Level carrying the non-finite value.
        level: u8,
    },
    /// Level 0 must have zero size and zero utility.
    NonZeroBase,
}

impl fmt::Display for LadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadderError::Empty => write!(f, "presentation ladder has no deliverable level"),
            LadderError::NonMonotoneSize { level } => write!(
                f,
                "presentation size does not strictly increase between levels {} and {}",
                level,
                level + 1
            ),
            LadderError::NonMonotoneUtility { level } => write!(
                f,
                "presentation utility does not strictly increase between levels {} and {}",
                level,
                level + 1
            ),
            LadderError::NonFiniteUtility { level } => {
                write!(f, "presentation utility at level {level} is not finite")
            }
            LadderError::NonZeroBase => {
                write!(f, "level 0 must have zero size and zero utility")
            }
        }
    }
}

impl Error for LadderError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_error_messages_are_lowercase_and_specific() {
        let msg = LadderError::NonMonotoneSize { level: 2 }.to_string();
        assert!(msg.contains("levels 2 and 3"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<LadderError>();
    }
}
