"""Coded slotted ALOHA over a massive-MIMO uplink: simulator and analysis."""

__version__ = "0.1.0"
