//! Error type for the network substrate.

use crate::addr::Addr;
use std::fmt;

/// Errors produced by the network substrate.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// The destination endpoint does not exist on the node.
    UnknownEndpoint(Addr),
    /// The transport has been disconnected from its medium.
    Disconnected,
    /// The payload exceeds the maximum transmission unit of the transport.
    PayloadTooLarge {
        /// Size that was attempted.
        size: usize,
        /// Maximum allowed size.
        max: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownEndpoint(a) => write!(f, "unknown endpoint {a}"),
            NetError::Disconnected => write!(f, "transport disconnected"),
            NetError::PayloadTooLarge { size, max } => {
                write!(f, "payload of {size} bytes exceeds transport maximum of {max} bytes")
            }
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = NetError::PayloadTooLarge { size: 99_999, max: 65_507 };
        let msg = e.to_string();
        assert!(msg.contains("99999"));
        assert!(msg.starts_with("payload"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<NetError>();
    }
}
