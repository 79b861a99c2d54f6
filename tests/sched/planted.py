"""A planted delivery-order bug for the explorer's end-to-end tests."""

from repro.binder.driver import BinderDriver

_flush_async = BinderDriver._flush_async


def reversed_flush(driver: BinderDriver) -> None:
    """``BinderDriver._flush_async`` delivering its batch back to front.

    Under the default FIFO schedule every flush holds at most one
    message per sender, so the reversal is invisible; a schedule that
    lets two of one sender's messages share a flush misorders its
    replies.  The per-message delivery path once had a bug of the same
    shape (see fixtures/binder-burst-legacy-sender-order.json).
    """
    driver._async_pending.reverse()
    _flush_async(driver)
