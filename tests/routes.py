"""One order route run alone, through the one route runner."""

from monoid_orders.orders import all_orders


def route(lat, name, **kw):
    """The report of route name (thm31, thm33, thm34 or thm41) on lat, run
    alone by all_orders with the keywords kw; the exception that stopped
    the route is raised."""
    result = all_orders(lat, routes=(name,), **kw)[name]
    if isinstance(result, Exception):
        raise result
    return result
