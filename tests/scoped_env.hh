/**
 * @file
 * ScopedEnv: set or unset one environment variable for a scope and
 * restore it afterwards. Flags are the only configuration; the tests use
 * this to show that GHRP_* variables change nothing.
 */

#ifndef GHRP_TESTS_SCOPED_ENV_HH
#define GHRP_TESTS_SCOPED_ENV_HH

#include <cstdlib>
#include <string>

namespace ghrp::test
{

class ScopedEnv
{
  public:
    /** Set @p name to @p value, or unset it when @p value is null. */
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        if (const char *old = std::getenv(name)) {
            had = true;
            saved = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had)
            ::setenv(name.c_str(), saved.c_str(), 1);
        else
            ::unsetenv(name.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name;
    std::string saved;
    bool had = false;
};

} // namespace ghrp::test

#endif // GHRP_TESTS_SCOPED_ENV_HH
